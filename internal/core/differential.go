package core

import (
	"fmt"
	"slices"

	"repro/internal/network"
	"repro/internal/sat"
	"repro/internal/simulator"
	"repro/internal/smt"
)

// This file is the differential-testing API: it pins a symbolic model to
// one concrete environment and compares the resulting stable state with
// the concrete simulator's, router by router. The package's own tests,
// the internal/fuzz oracles and cmd/bench's fuzz smoke mode all go
// through these entry points, so a disagreement found by any of them is
// reproducible with the others.

// PinEnvironment returns constraints fixing the packet to dst (TCP/80,
// zero source) and the announcement/failure environment to env, so the
// formula's stable state can be compared against the simulator's. The
// order is deterministic: the witness probe blasts these terms.
func (m *Model) PinEnvironment(dst network.IP, env *simulator.Environment) []*smt.Term {
	c := m.Ctx
	var out []*smt.Term
	out = append(out,
		c.Eq(m.DstIP, c.BV(uint64(dst), WidthIP)),
		c.Eq(m.SrcIP, c.BV(0, WidthIP)),
		c.Eq(m.SrcPort, c.BV(0, 16)),
		c.Eq(m.DstPort, c.BV(80, 16)),
		c.Eq(m.IPProto, c.BV(6, 8)),
	)
	pinSliceEnv := func(sl *Slice, sliceDst network.IP) {
		for _, e := range m.G.Topo.Externals {
			rec := sl.Env[e.Name]
			ann := env.Anns[e.Name]
			if ann == nil || !ann.Prefix.Contains(sliceDst) {
				out = append(out, c.Not(rec.Valid))
				continue
			}
			out = append(out,
				rec.Valid,
				c.Eq(rec.PrefixLen, c.BV(uint64(ann.Prefix.Len), WidthPrefixLen)),
				c.Eq(rec.Metric, c.BV(uint64(ann.PathLen), WidthMetric)),
			)
			if m.medActive {
				out = append(out, c.Eq(rec.MED, c.BV(uint64(ann.MED), WidthMED)))
			}
			if rec.Prefix != nil {
				out = append(out, c.Eq(rec.Prefix, c.BV(uint64(ann.Prefix.Addr), WidthIP)))
			}
			has := map[string]bool{}
			for _, cm := range ann.Communities {
				has[cm] = true
			}
			for _, cm := range m.commUni {
				bit, ok := rec.Comms[cm]
				if !ok || bit.Op() != smt.OpBoolVar {
					continue
				}
				if has[cm] {
					out = append(out, bit)
				} else {
					out = append(out, c.Not(bit))
				}
			}
		}
	}
	pinSliceEnv(m.Main, dst)
	addrs := make([]network.IP, 0, len(m.Addr))
	for addr := range m.Addr {
		addrs = append(addrs, addr)
	}
	slices.Sort(addrs)
	for _, addr := range addrs {
		pinSliceEnv(m.Addr[addr], addr)
	}
	for _, id := range m.failedIDs() {
		if v := m.Failed[id]; env.FailedLinks[id] {
			out = append(out, v)
		} else {
			out = append(out, c.Not(v))
		}
	}
	return out
}

// SolveConcrete pins the environment and extracts a stable state of the
// constraint system as a full variable assignment. Fixtures with a unique
// stable state get that state; multi-stable networks get one of theirs.
func (m *Model) SolveConcrete(dst network.IP, env *simulator.Environment) (smt.Assignment, error) {
	solver := smt.NewSolver(m.Ctx)
	for _, a := range m.Asserts {
		solver.Assert(a)
	}
	for _, a := range m.PinEnvironment(dst, env) {
		solver.Assert(a)
	}
	if st := solver.Check(); st != sat.Sat {
		return nil, fmt.Errorf("core: no stable state found (%v) for dst %v env %v", st, dst, env)
	}
	return solver.Model(), nil
}

// DiffSimulator compares a pinned assignment with the simulator's stable
// state router by router — overall best route, control-plane forwarding,
// local delivery, null drops and exports to external peers. It returns
// one message per disagreement; an empty slice means the symbolic and
// concrete worlds agree exactly.
func (m *Model) DiffSimulator(asg smt.Assignment, simres *simulator.Result, dst network.IP, env *simulator.Environment) []string {
	var diffs []string
	ev := smt.NewEvaluator(asg)
	for _, n := range m.G.Topo.Nodes {
		name := n.Name
		sym := decodeRecord(m.Main.Best[name], ev)
		conc := simres.States[name].Best
		ctx := fmt.Sprintf("router %s dst %v env [%v]", name, dst, env)
		if sym.Valid != conc.Valid {
			diffs = append(diffs, fmt.Sprintf("%s: valid mismatch sym=%v conc=%v", ctx, sym, conc))
			continue
		}
		if conc.Valid {
			if sym.PrefixLen != conc.PrefixLen || sym.AD != conc.AD ||
				sym.LocalPref != conc.LocalPref || sym.Metric != conc.Metric {
				diffs = append(diffs, fmt.Sprintf("%s: record mismatch sym=%+v conc=%v", ctx, sym, conc))
			}
			if m.ibgpActive && sym.Internal != conc.Internal {
				diffs = append(diffs, fmt.Sprintf("%s: internal mismatch sym=%+v conc=%v", ctx, sym, conc))
			}
		}
		// Forwarding decisions.
		simHops := map[Hop]bool{}
		for _, h := range simres.States[name].Hops {
			simHops[Hop{Node: h.Node, Ext: h.Ext}] = true
		}
		for h, bit := range m.Main.CtrlFwd[name] {
			got := ev.Eval(bit).Bool
			if got != simHops[h] {
				diffs = append(diffs, fmt.Sprintf("%s: fwd %v sym=%v conc=%v (sym best %+v, conc %v)", ctx, h, got, simHops[h], sym, conc))
			}
			delete(simHops, h)
		}
		for h, want := range simHops {
			if want {
				diffs = append(diffs, fmt.Sprintf("%s: simulator forwards to %v but model has no such edge", ctx, h))
			}
		}
		if got := ev.Eval(m.Main.DeliveredLocal[name]).Bool; got != simres.States[name].DeliveredLocal {
			diffs = append(diffs, fmt.Sprintf("%s: deliveredLocal sym=%v conc=%v", ctx, got, simres.States[name].DeliveredLocal))
		}
		if got := ev.Eval(m.Main.DroppedNull[name]).Bool; got != simres.States[name].DroppedNull {
			diffs = append(diffs, fmt.Sprintf("%s: droppedNull sym=%v conc=%v", ctx, got, simres.States[name].DroppedNull))
		}
	}
	// Exports to external neighbors.
	for extName, symRec := range m.Main.ExtExports {
		sym := decodeRecord(symRec, ev)
		conc := simres.ExportsToExt[extName]
		if sym.Valid != conc.Valid {
			diffs = append(diffs, fmt.Sprintf("export to %s: valid sym=%v conc=%v (dst %v env %v)", extName, sym.Valid, conc.Valid, dst, env))
		}
		if conc.Valid && sym.Metric != conc.Metric {
			diffs = append(diffs, fmt.Sprintf("export to %s: metric sym=%d conc=%d", extName, sym.Metric, conc.Metric))
		}
	}
	return diffs
}

// DiffAgainstSimulator runs the concrete simulator and the pinned
// symbolic model on one (dst, env) scenario and returns their
// disagreements. It is the one-call differential oracle: an error means
// a world failed to produce a state at all, a non-empty diff list means
// the worlds disagree.
func (m *Model) DiffAgainstSimulator(dst network.IP, env *simulator.Environment) ([]string, error) {
	sim := simulator.New(m.G)
	simres, err := sim.Run(dst, env)
	if err != nil {
		return nil, fmt.Errorf("core: simulate dst %v env %v: %w", dst, env, err)
	}
	asg, err := m.SolveConcrete(dst, env)
	if err != nil {
		return nil, err
	}
	return m.DiffSimulator(asg, simres, dst, env), nil
}
