package harness

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/tiered"
	"repro/internal/topogen"
)

// batchProp is one property of the batch suite. Its term is built
// (pipeline.Property) against the mode's own model, because property
// construction interns terms and may append instrumentation constraints.
type batchProp struct {
	Name string
	Goal tiered.Goal
}

// batchToRLimit caps the per-ToR property fan-out so the suite grows
// gently with fabric size.
const batchToRLimit = 3

// batchProps builds the batch suite for a fabric: the fixed whole-network
// properties plus four queries per non-destination ToR (capped). On the
// smallest fabric (2 pods) this is a 10-property suite.
func batchProps(f *Fabric) []batchProp {
	k := f.FT.K
	destToR := topogen.ToRName(0, 0)
	var others []string
	for _, t := range f.FT.AllToRs() {
		if t != destToR {
			others = append(others, t)
		}
	}
	to := func(g tiered.Goal) tiered.Goal {
		g.Subnet, g.HasSubnet = topogen.ToRSubnet(0, 0), true
		return g
	}
	props := []batchProp{
		{"no-blackholes", tiered.Goal{Check: "blackholes"}},
		{"multipath-consistency", tiered.Goal{Check: "multipath-consistency"}},
		{"no-loops", tiered.Goal{Check: "loops"}},
		{"equal-length-pod", to(tiered.Goal{Check: "equal-lengths", Srcs: f.FT.ToRs[k-1]})},
		{"all-tor-reachability", to(tiered.Goal{Check: "reachability-all", Srcs: others})},
		{"all-tor-bounded-length", to(tiered.Goal{Check: "bounded-length-all", Srcs: others, Hops: 4})},
	}
	for i, tor := range others {
		if i == batchToRLimit {
			break
		}
		props = append(props,
			batchProp{"reachability:" + tor, to(tiered.Goal{Check: "reachability", Src: tor})},
			batchProp{"bounded-length:" + tor, to(tiered.Goal{Check: "bounded-length", Src: tor, Hops: 4})},
			batchProp{"reachability-1f:" + tor, to(tiered.Goal{Check: "reachability", Src: tor, MaxFailures: 1})},
			batchProp{"bounded-length-6:" + tor, to(tiered.Goal{Check: "bounded-length", Src: tor, Hops: 6})},
		)
	}
	return props
}

// BatchCheck is one property's timings in one mode.
type BatchCheck struct {
	Property  string
	Elapsed   time.Duration
	Encode    time.Duration
	Simplify  time.Duration
	Solve     time.Duration
	Certify   time.Duration
	Verified  bool
	Conflicts int64
}

// BatchMode aggregates one strategy's run over the suite. Total is the
// wall clock of the whole mode including the model encode; for the
// session mode SetupBlast and SetupSimplify are the one-time session
// costs amortized across the checks.
type BatchMode struct {
	Mode          string
	Total         time.Duration
	EncodeModel   time.Duration
	SetupBlast    time.Duration
	SetupSimplify time.Duration
	SharedBlasts  int
	// Compiles counts term-pipeline runs (Model.CompileCount): the
	// session mode compiles once, while the fresh mode recompiles each
	// time a property builder grows the assert list.
	Compiles int
	Checks   []BatchCheck
}

// QueryTotal sums the per-check elapsed times plus the session setup,
// excluding the (mode-independent) symbolic model encode.
func (bm *BatchMode) QueryTotal() time.Duration {
	t := bm.SetupBlast + bm.SetupSimplify
	for _, c := range bm.Checks {
		t += c.Elapsed
	}
	return t
}

// BatchResult compares the fresh-solver strategy (every property re-blasts
// the shared constraint system N into a new solver) against one
// incremental session (N blasted once, each property checked under an
// activation literal).
type BatchResult struct {
	Pods, Routers, Properties int
	Fresh, Session            BatchMode
	// Speedup is Fresh.Total / Session.Total.
	Speedup float64
}

// RunBatch runs the batch suite twice on the fabric — fresh solvers, then
// one session — and cross-checks that both strategies return identical
// verdicts for every property.
func RunBatch(f *Fabric) (*BatchResult, error) {
	props := batchProps(f)
	out := &BatchResult{
		Pods:       f.FT.K,
		Routers:    len(f.FT.Routers),
		Properties: len(props),
	}

	// Fresh mode: one model, a brand-new solver per check (Model.Check).
	start := time.Now()
	encStart := time.Now()
	mf, err := f.encode(core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	out.Fresh = BatchMode{Mode: "fresh", EncodeModel: time.Since(encStart)}
	out.Fresh.SharedBlasts = 0
	for _, bp := range props {
		p, assumptions, err := pipeline.Property(mf, bp.Goal)
		if err != nil {
			return nil, fmt.Errorf("harness: fresh %s: %w", bp.Name, err)
		}
		res, err := mf.Check(p, assumptions...)
		if err != nil {
			return nil, fmt.Errorf("harness: fresh %s: %w", bp.Name, err)
		}
		out.Fresh.SharedBlasts++ // every fresh check re-blasts N
		out.Fresh.Checks = append(out.Fresh.Checks, BatchCheck{
			Property: bp.Name, Elapsed: res.Elapsed,
			Encode: res.EncodeElapsed, Simplify: res.SimplifyElapsed,
			Solve: res.SolveElapsed, Certify: res.CertifyElapsed,
			Verified: res.Verified, Conflicts: res.Stats.Conflicts,
		})
	}
	out.Fresh.Compiles = mf.CompileCount()
	out.Fresh.Total = time.Since(start)

	// Session mode: one model, one incremental session for all checks.
	start = time.Now()
	encStart = time.Now()
	ms, err := f.encode(core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	out.Session = BatchMode{Mode: "session", EncodeModel: time.Since(encStart)}
	sess := ms.NewSession()
	out.Session.SetupBlast, out.Session.SetupSimplify = sess.SetupElapsed()
	for _, bp := range props {
		p, assumptions, err := pipeline.Property(ms, bp.Goal)
		if err != nil {
			return nil, fmt.Errorf("harness: session %s: %w", bp.Name, err)
		}
		res, err := sess.Check(p, assumptions...)
		if err != nil {
			return nil, fmt.Errorf("harness: session %s: %w", bp.Name, err)
		}
		out.Session.Checks = append(out.Session.Checks, BatchCheck{
			Property: bp.Name, Elapsed: res.Elapsed,
			Encode: res.EncodeElapsed, Simplify: res.SimplifyElapsed,
			Solve: res.SolveElapsed, Certify: res.CertifyElapsed,
			Verified: res.Verified, Conflicts: res.Stats.Conflicts,
		})
	}
	out.Session.SharedBlasts = sess.SharedBlasts()
	out.Session.Compiles = ms.CompileCount()
	out.Session.Total = time.Since(start)

	for i := range props {
		if out.Fresh.Checks[i].Verified != out.Session.Checks[i].Verified {
			return nil, fmt.Errorf("harness: %s: fresh verified=%v but session verified=%v",
				props[i].Name, out.Fresh.Checks[i].Verified, out.Session.Checks[i].Verified)
		}
	}
	if out.Session.Total > 0 {
		out.Speedup = float64(out.Fresh.Total) / float64(out.Session.Total)
	}
	return out, nil
}
