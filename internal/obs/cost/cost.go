// Package cost is the hierarchical per-query resource ledger: where the
// verifier's effort actually went, attributed along the execution tree
//
//	job → goal → tier(graph/sat) → component → phase
//
// Each Node charges one step of that tree with three kinds of account:
//
//   - deterministic work units (Work): solver counters from sat.Stats
//     plus clause-database and DRAT-proof byte accounting. These are
//     pure functions of the input, so they are bit-identical across
//     machines and run-to-run — the currency of the regression gates and
//     of service admission control.
//   - wall and (approximate, process-wide) CPU time per phase.
//   - memory: cumulative heap-allocation deltas and a live-heap
//     watermark from runtime/metrics snapshots. These are reported but
//     never gated: the runtime makes them machine-dependent.
//
// Nodes merge (Merge) the way origin profiles do: same-name children
// fold recursively, counters add, watermarks take the maximum. The
// modular runner merges per-class ledgers, and the service merges
// per-check ledgers into one job tree.
//
// The invariant every exporter relies on: a node's Total equals its own
// Self work plus the sum of its children's Totals, so the root of a
// ledger is exactly the grand total and any subtree can be priced in
// isolation.
package cost

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro/internal/sat"
)

// Work is the deterministic work-unit vector. All fields are
// machine-independent at fixed seed and workers=1: they count algorithm
// steps and database bytes, not seconds.
type Work struct {
	Decisions    int64 `json:"decisions,omitempty"`
	Propagations int64 `json:"propagations,omitempty"`
	Conflicts    int64 `json:"conflicts,omitempty"`
	Learned      int64 `json:"learned,omitempty"`
	Restarts     int64 `json:"restarts,omitempty"`
	// ClauseDBBytes is the deterministic clause-database footprint
	// (sat.Solver.ClauseDBBytes) — charged as deltas per phase, so a
	// simplification that shrinks the database shows up negative and the
	// tree still sums to the final footprint.
	ClauseDBBytes int64 `json:"clause_db_bytes,omitempty"`
	// ProofBytes is the deterministic DRAT trace footprint
	// (sat.Proof.Bytes) of recorded/checked certificates.
	ProofBytes int64 `json:"proof_bytes,omitempty"`
}

// FromStats converts solver counters into work units.
func FromStats(st sat.Stats) Work {
	return Work{
		Decisions:    st.Decisions,
		Propagations: st.Propagations,
		Conflicts:    st.Conflicts,
		Learned:      st.Learned,
		Restarts:     st.Restarts,
	}
}

// Plus returns w + o, field by field.
func (w Work) Plus(o Work) Work {
	w.Decisions += o.Decisions
	w.Propagations += o.Propagations
	w.Conflicts += o.Conflicts
	w.Learned += o.Learned
	w.Restarts += o.Restarts
	w.ClauseDBBytes += o.ClauseDBBytes
	w.ProofBytes += o.ProofBytes
	return w
}

// Minus returns w - o, field by field.
func (w Work) Minus(o Work) Work {
	w.Decisions -= o.Decisions
	w.Propagations -= o.Propagations
	w.Conflicts -= o.Conflicts
	w.Learned -= o.Learned
	w.Restarts -= o.Restarts
	w.ClauseDBBytes -= o.ClauseDBBytes
	w.ProofBytes -= o.ProofBytes
	return w
}

// Units collapses the vector to one scalar for budgets and "costliest
// subtree" ranking: the solver's step count (decisions + propagations +
// conflicts), the same scale sat.Progress reports.
func (w Work) Units() int64 { return w.Decisions + w.Propagations + w.Conflicts }

// IsZero reports an all-zero vector.
func (w Work) IsZero() bool { return w == Work{} }

// Mem is the non-deterministic memory account: reported, never gated.
type Mem struct {
	// AllocBytes is the cumulative heap-allocation delta over the node's
	// window ("/gc/heap/allocs:bytes").
	AllocBytes int64 `json:"alloc_bytes,omitempty"`
	// HeapPeakBytes is the live-heap watermark observed at the node's
	// boundaries ("/memory/classes/heap/objects:bytes").
	HeapPeakBytes uint64 `json:"heap_peak_bytes,omitempty"`
}

func (m *Mem) fold(o Mem) {
	m.AllocBytes += o.AllocBytes
	if o.HeapPeakBytes > m.HeapPeakBytes {
		m.HeapPeakBytes = o.HeapPeakBytes
	}
}

// Node is one step of the execution tree. Self is the node's own direct
// work; children carry theirs. All methods are nil-safe, so callers can
// thread ledgers unconditionally and pay nothing when accounting is off.
type Node struct {
	Name string
	Wall time.Duration
	// CPU is the process-wide CPU-time delta over the node's window —
	// approximate by construction (concurrent phases double-charge) and
	// only as fresh as the runtime's CPU statistics.
	CPU  time.Duration
	Self Work
	Mem  Mem
	// Meta carries small attribution integers (winner ids, alias member
	// counts, wasted units) that are not additive work.
	Meta     map[string]int64
	Children []*Node
}

// New returns a ledger root.
func New(name string) *Node { return &Node{Name: name} }

// Child finds the named child, creating it on first use — so repeated
// charges to the same phase accumulate rather than duplicate.
func (n *Node) Child(name string) *Node {
	if n == nil {
		return nil
	}
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	c := &Node{Name: name}
	n.Children = append(n.Children, c)
	return c
}

// AddChild grafts an existing subtree by pointer (merging into a
// same-name child if one exists). The caller hands c over: graft only
// trees nothing else reads afterwards — a job root adopting its goal
// ledger, a report adopting a class ledger. To fold in a tree someone
// else keeps, Merge it.
func (n *Node) AddChild(c *Node) {
	if n == nil || c == nil {
		return
	}
	for _, ex := range n.Children {
		if ex.Name == c.Name {
			ex.Merge(c)
			return
		}
	}
	n.Children = append(n.Children, c)
}

// Add folds work units into the node's own account.
func (n *Node) Add(w Work) {
	if n == nil {
		return
	}
	n.Self = n.Self.Plus(w)
}

// AddWall accumulates wall time.
func (n *Node) AddWall(d time.Duration) {
	if n != nil {
		n.Wall += d
	}
}

// SetMeta records a non-additive attribution integer.
func (n *Node) SetMeta(key string, v int64) {
	if n == nil {
		return
	}
	if n.Meta == nil {
		n.Meta = map[string]int64{}
	}
	n.Meta[key] = v
}

// Total returns the node's aggregate work: Self plus every descendant.
func (n *Node) Total() Work {
	if n == nil {
		return Work{}
	}
	t := n.Self
	for _, c := range n.Children {
		t = t.Plus(c.Total())
	}
	return t
}

// TotalMem aggregates the memory account: allocation deltas add, the
// watermark is the subtree maximum.
func (n *Node) TotalMem() Mem {
	if n == nil {
		return Mem{}
	}
	m := n.Mem
	for _, c := range n.Children {
		m.fold(c.TotalMem())
	}
	return m
}

// TotalWall sums wall time over the subtree (the sequential cost;
// wall-clock with parallelism is the scheduler's story).
func (n *Node) TotalWall() time.Duration {
	if n == nil {
		return 0
	}
	d := n.Wall
	for _, c := range n.Children {
		d += c.TotalWall()
	}
	return d
}

// PhaseWall sums the wall time of every node named phase below n: the
// one phase child of a flat ledger, or that phase in each subtree of a
// composed one.
func (n *Node) PhaseWall(phase string) time.Duration {
	if n == nil {
		return 0
	}
	var d time.Duration
	for _, c := range n.Children {
		if c.Name == phase {
			d += c.Wall
		}
		d += c.PhaseWall(phase)
	}
	return d
}

// Merge folds o into n: counters and durations add, watermarks take the
// maximum, same-name children merge recursively — the same semantics
// provenance.MergeProfiles gives origin profiles. The donor is only read:
// n never comes to share a node with o, so one ledger can be merged into
// several roots, and a root merged into later leaves its donors as they
// were.
func (n *Node) Merge(o *Node) {
	if n == nil || o == nil {
		return
	}
	n.Wall += o.Wall
	n.CPU += o.CPU
	n.Self = n.Self.Plus(o.Self)
	n.Mem.fold(o.Mem)
	for k, v := range o.Meta {
		n.SetMeta(k, n.metaOr(k)+v)
	}
	for _, oc := range o.Children {
		n.Child(oc.Name).Merge(oc)
	}
}

func (n *Node) metaOr(key string) int64 {
	if n == nil || n.Meta == nil {
		return 0
	}
	return n.Meta[key]
}

// Find walks the named path from n (nil when any hop is missing).
func (n *Node) Find(path ...string) *Node {
	cur := n
	for _, name := range path {
		if cur == nil {
			return nil
		}
		var next *Node
		for _, c := range cur.Children {
			if c.Name == name {
				next = c
				break
			}
		}
		cur = next
	}
	return cur
}

// Costliest names the child subtree with the most work units (falling
// back to wall time when no child did solver work) — the subtree a
// budget-exceeded verdict points at.
func (n *Node) Costliest() (name string, units int64) {
	if n == nil || len(n.Children) == 0 {
		return "", 0
	}
	best := -1
	var bestUnits int64
	var bestWall time.Duration
	for i, c := range n.Children {
		u, w := c.Total().Units(), c.TotalWall()
		if best < 0 || u > bestUnits || (u == bestUnits && w > bestWall) {
			best, bestUnits, bestWall = i, u, w
		}
	}
	return n.Children[best].Name, bestUnits
}

// snapshot is a point-in-time resource reading; phases are charged by
// the delta between two.
type snapshot struct {
	wall       time.Time
	totalAlloc uint64
	heapLive   uint64
	cpu        time.Duration
}

var snapSamples = [...]string{
	"/gc/heap/allocs:bytes",
	"/memory/classes/heap/objects:bytes",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// readSnap reads the runtime counters backing a phase charge into a
// caller-owned sample buffer, so a Scope reads its boundaries without
// allocating.
func readSnap(samples *[len(snapSamples)]metrics.Sample) snapshot {
	s := snapshot{wall: time.Now()}
	for i, name := range snapSamples {
		samples[i].Name = name
	}
	metrics.Read(samples[:])
	if samples[0].Value.Kind() == metrics.KindUint64 {
		s.totalAlloc = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		s.heapLive = samples[1].Value.Uint64()
	}
	if samples[2].Value.Kind() == metrics.KindFloat64 && samples[3].Value.Kind() == metrics.KindFloat64 {
		busy := samples[2].Value.Float64() - samples[3].Value.Float64()
		if busy > 0 {
			s.cpu = time.Duration(busy * float64(time.Second))
		}
	}
	return s
}

// HeapLiveBytes reads the current live-heap size
// ("/memory/classes/heap/objects:bytes") — what service memory budgets
// compare against their limit. Cheap enough for a progress hook.
func HeapLiveBytes() uint64 {
	samples := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindUint64 {
		return samples[0].Value.Uint64()
	}
	return 0
}

// charge applies the delta between two snapshots to the node: wall and
// CPU time, allocation bytes, and the live-heap watermark at both
// endpoints.
func (n *Node) charge(from, now snapshot) {
	if n == nil {
		return
	}
	n.Wall += now.wall.Sub(from.wall)
	if now.cpu > from.cpu {
		n.CPU += now.cpu - from.cpu
	}
	if now.totalAlloc > from.totalAlloc {
		n.Mem.AllocBytes += int64(now.totalAlloc - from.totalAlloc)
	}
	for _, hw := range []uint64{from.heapLive, now.heapLive} {
		if hw > n.Mem.HeapPeakBytes {
			n.Mem.HeapPeakBytes = hw
		}
	}
}

// wire is the JSON form: work is the subtree total (so consumers can
// price any node without recursing), self_work the node's own share when
// it has children of its own.
type wire struct {
	Name          string           `json:"name"`
	WallMs        float64          `json:"wall_ms"`
	CPUMs         float64          `json:"cpu_ms,omitempty"`
	Work          Work             `json:"work"`
	SelfWork      *Work            `json:"self_work,omitempty"`
	AllocBytes    int64            `json:"alloc_bytes,omitempty"`
	HeapPeakBytes uint64           `json:"heap_peak_bytes,omitempty"`
	Meta          map[string]int64 `json:"meta,omitempty"`
	Children      []*Node          `json:"children,omitempty"`
}

func durMs(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// MarshalJSON emits the wire form; per-node work sums to the root by
// construction (work == self_work + Σ children.work).
func (n *Node) MarshalJSON() ([]byte, error) {
	w := wire{
		Name:          n.Name,
		WallMs:        durMs(n.Wall),
		CPUMs:         durMs(n.CPU),
		Work:          n.Total(),
		AllocBytes:    n.Mem.AllocBytes,
		HeapPeakBytes: n.Mem.HeapPeakBytes,
		Meta:          n.Meta,
		Children:      n.Children,
	}
	if len(n.Children) > 0 && !n.Self.IsZero() {
		self := n.Self
		w.SelfWork = &self
	}
	return json.Marshal(w)
}

// UnmarshalJSON reads the wire form back into a ledger (used by clients
// of the service's /cost endpoint and by tests).
func (n *Node) UnmarshalJSON(data []byte) error {
	var w wire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	n.Name = w.Name
	n.Wall = time.Duration(w.WallMs * float64(time.Millisecond))
	n.CPU = time.Duration(w.CPUMs * float64(time.Millisecond))
	n.Mem = Mem{AllocBytes: w.AllocBytes, HeapPeakBytes: w.HeapPeakBytes}
	n.Meta = w.Meta
	n.Children = w.Children
	switch {
	case w.SelfWork != nil:
		n.Self = *w.SelfWork
	case len(w.Children) == 0:
		n.Self = w.Work
	default:
		self := w.Work
		for _, c := range w.Children {
			self = self.Minus(c.Total())
		}
		n.Self = self
	}
	return nil
}

// WriteTree renders the ledger as an indented text table (the
// minesweeper -cost view).
func (n *Node) WriteTree(w io.Writer) {
	if n == nil {
		return
	}
	fmt.Fprintln(w, "node                                wall_ms     units  conflicts      props    db_bytes")
	n.writeTree(w, 0)
}

func (n *Node) writeTree(w io.Writer, depth int) {
	t := n.Total()
	label := strings.Repeat("  ", depth) + n.Name
	extra := ""
	if m := n.TotalMem(); m.HeapPeakBytes > 0 {
		extra = fmt.Sprintf("  heap_peak=%s", byteSize(m.HeapPeakBytes))
	}
	if proof := t.ProofBytes; proof > 0 {
		extra += fmt.Sprintf("  proof=%s", byteSize(uint64(proof)))
	}
	for _, k := range sortedMetaKeys(n.Meta) {
		extra += fmt.Sprintf("  %s=%d", k, n.Meta[k])
	}
	fmt.Fprintf(w, "%-32s %10.2f %9d %10d %10d %11d%s\n",
		label, durMs(n.Wall), t.Units(), t.Conflicts, t.Propagations, t.ClauseDBBytes, extra)
	for _, c := range n.Children {
		c.writeTree(w, depth+1)
	}
}

func sortedMetaKeys(m map[string]int64) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func byteSize(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}
