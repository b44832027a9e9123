package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

type spanKind uint8

const (
	kindOp     spanKind = iota // one client operation, timed by the load generator
	kindCall                   // caller side of an RPC (nodeDialer)
	kindHandle                 // callee side of an RPC (endpoint)
)

func (k spanKind) String() string {
	return [...]string{"op", "call", "handle"}[k]
}

// span is one timed interval at a layer boundary, kept small because a
// traced read run records hundreds of thousands. node is the client for
// op spans, the caller for call spans and the callee for handle spans;
// peer is a call's destination address. Strings are indexes into the
// tracer's name table. Times are nanoseconds since the tracer's epoch.
type span struct {
	start, end         int64
	bytes              int32
	node, peer, method uint16
	kind               spanKind
	failed             bool
}

func (s *span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory while on is set.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
	ids   map[string]uint16
	names []string // node names, method names and the traced deployment's addresses
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), ids: map[string]uint16{"": 0}, names: []string{""}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// idLocked interns s. Only one deployment is traced, so the table holds a
// few dozen names.
func (t *tracer) idLocked(s string) uint16 {
	id, ok := t.ids[s]
	if !ok {
		id = uint16(len(t.names))
		t.ids[s] = id
		t.names = append(t.names, s)
	}
	return id
}

// add records a span that started at start and ends now.
func (t *tracer) add(kind spanKind, node, peer, method string, start int64, bytes int, failed bool) {
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{start: start, end: end, bytes: int32(bytes),
		node: t.idLocked(node), peer: t.idLocked(peer), method: t.idLocked(method), kind: kind, failed: failed})
	t.mu.Unlock()
}

// trace is the recorded spans joined into requests.
type trace struct {
	spans []span
	names []string
	peer  []uint16 // call: name id of the destination node
	// Per span: the enclosing span (-1 for a root), the root of its
	// request, the callee's handle span for a call (-1 if none), and self
	// time.
	parent, req, match []int32
	self               []int64
}

// link takes the tracer's spans and joins them into request trees. Frames
// carry no request id, so spans are linked by node, method and
// containment:
//   - a call's callee span is the unmatched handle span on the destination
//     node, for the same method, that lies inside the call's interval;
//   - a call's parent is the latest-starting op or handle span on the
//     calling node whose interval contains the call. Under concurrency on
//     one node this picks the innermost enclosing span, which is a
//     heuristic: a background call that overlaps an unrelated handler is
//     attributed to it;
//   - a handle span's parent is the call it matched.
//
// A span's self time is its duration minus the union of its children's
// intervals. addrs maps listener addresses to node names.
func (t *tracer) link(addrs map[string]string) *trace {
	t.mu.Lock()
	tr := &trace{spans: t.spans}
	t.spans = nil
	nodeOf := make([]uint16, len(t.names))
	for i, n := range t.names {
		nodeOf[i] = uint16(i)
		if node, ok := addrs[n]; ok {
			nodeOf[i] = t.idLocked(node)
		}
	}
	tr.names = append([]string(nil), t.names...)
	t.mu.Unlock()

	spans := tr.spans
	n := len(spans)
	tr.peer = make([]uint16, n)
	tr.parent, tr.req, tr.match = make([]int32, n), make([]int32, n), make([]int32, n)
	tr.self = make([]int64, n)
	order := make([]int32, n)
	for i := range spans {
		order[i] = int32(i)
		tr.parent[i], tr.match[i] = -1, -1
		if spans[i].kind == kindCall {
			tr.peer[i] = nodeOf[spans[i].peer]
		}
	}
	sort.Slice(order, func(a, b int) bool { return spans[order[a]].start < spans[order[b]].start })

	// Handle spans by (node, method), and enclosing candidates by node,
	// each in start order.
	type key struct{ node, method uint16 }
	handles := make(map[key][]int32)
	encl := make(map[uint16][]int32)
	maxDur := make(map[uint16]int64)
	for _, i := range order {
		s := &spans[i]
		switch s.kind {
		case kindHandle:
			k := key{s.node, s.method}
			handles[k] = append(handles[k], i)
			fallthrough
		case kindOp:
			encl[s.node] = append(encl[s.node], i)
			maxDur[s.node] = max(maxDur[s.node], s.dur())
		}
	}

	matched := make([]bool, n)
	for _, i := range order {
		c := &spans[i]
		if c.kind != kindCall {
			continue
		}
		hs := handles[key{tr.peer[i], c.method}]
		j := sort.Search(len(hs), func(x int) bool { return spans[hs[x]].start >= c.start })
		for ; j < len(hs) && spans[hs[j]].start <= c.end; j++ {
			h := hs[j]
			if !matched[h] && spans[h].end <= c.end {
				matched[h] = true
				tr.match[i] = h
				tr.parent[h] = i
				break
			}
		}
		cands := encl[c.node]
		j = sort.Search(len(cands), func(x int) bool { return spans[cands[x]].start > c.start }) - 1
		for steps := 0; j >= 0 && steps < 512; j, steps = j-1, steps+1 {
			p := &spans[cands[j]]
			if p.start < c.start-maxDur[c.node] {
				break
			}
			if p.end >= c.end {
				tr.parent[i] = cands[j]
				break
			}
		}
	}

	// Request ids in start order: a parent never starts after its child.
	children := make([][]int32, n)
	for _, i := range order {
		p := tr.parent[i]
		if p < 0 {
			tr.req[i] = i
			continue
		}
		tr.req[i] = tr.req[p]
		children[p] = append(children[p], i)
	}
	for i := range spans {
		tr.self[i] = spans[i].dur() - covered(spans, children[i], spans[i].start, spans[i].end)
	}
	return tr
}

// covered is the length of the union of the children's intervals,
// clipped to [lo, hi]. Children arrive in start order.
func covered(spans []span, kids []int32, lo, hi int64) int64 {
	var total int64
	cur := lo
	for _, k := range kids {
		s, e := max(spans[k].start, cur), min(spans[k].end, hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// write writes the linked spans as tab-separated lines.
func (tr *trace) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tkind\tnode\tmethod\tpeer\tstart_ns\tend_ns\tself_ns\tbytes\tfailed")
	for i, s := range tr.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\t%s\t%s\t%d\t%d\t%d\t%d\t%t\n",
			i, tr.parent[i], tr.req[i], s.kind, tr.names[s.node], tr.names[s.method], tr.names[tr.peer[i]],
			s.start, s.end, tr.self[i], s.bytes, s.failed)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rpcMethods are the methods whose per-layer figures the benchmark
// reports.
var rpcMethods = []string{
	"s.read", "a.pledge", "m.check", "m.writemulti", "b.submit", "b.commit",
	"s.updatebatch", "s.keepalive", "m.sync",
}

// metrics derives the rpc, client and broadcast figures. ops and batches
// are the operations completed and the batches m0 committed while
// tracing was on; opMethod names the client op spans whose self time is
// reported.
func (tr *trace) metrics(ops, batches int64, opMethod string, out metricSet) {
	type acc struct {
		calls, handles, transport []int64
	}
	by := make(map[string]*acc)
	for _, m := range rpcMethods {
		by[m] = &acc{}
	}
	var bytes, bcastMsgs int64
	var self []int64
	for i := range tr.spans {
		s := &tr.spans[i]
		method := tr.names[s.method]
		switch s.kind {
		case kindCall:
			bytes += int64(s.bytes)
			if method == "b.submit" || method == "b.commit" {
				bcastMsgs++
			}
			if a := by[method]; a != nil {
				a.calls = append(a.calls, s.dur())
				if h := tr.match[i]; h >= 0 {
					a.transport = append(a.transport, s.dur()-tr.spans[h].dur())
				}
			}
		case kindHandle:
			if a := by[method]; a != nil {
				a.handles = append(a.handles, s.dur())
			}
		case kindOp:
			if method == opMethod {
				self = append(self, tr.self[i])
			}
		}
	}
	perOp := func(n int64) float64 { return float64(n) / float64(max(ops, 1)) }
	for _, m := range rpcMethods {
		a := by[m]
		p := "rpc." + m + "."
		out.add(p+"calls_per_op", perOp(int64(len(a.calls))), "count")
		out.add(p+"rtt_p50_us", usOf(quantile(a.calls, 0.5)), "us")
		out.add(p+"handler_p50_us", usOf(quantile(a.handles, 0.5)), "us")
		out.add(p+"transport_us", usOf(quantile(a.transport, 0.5)), "us")
	}
	out.add("rpc.bytes_per_op", perOp(bytes), "B")
	out.add("core.client.self_us", usOf(quantile(self, 0.5)), "us")
	msgs := 0.0
	if batches > 0 {
		msgs = float64(bcastMsgs) / float64(batches)
	}
	out.add("broadcast.msgs_per_batch", msgs, "count")
}
