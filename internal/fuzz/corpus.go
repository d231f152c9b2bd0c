package fuzz

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/service"
	"repro/internal/tiered"
)

// The regression corpus under testdata/regressions holds minimized fuzz
// findings as self-documenting text files, replayed by plain `go test`.
// The format:
//
//	# comment (anywhere)
//	simsafe: true
//	check: reachability src=R1 subnet=10.100.2.0/24 maxfail=1 expect=verified
//	--- R1
//	hostname R1
//	...
//	--- R2
//	...
//
// Directives come first; each "--- name" line starts one router's
// configuration block. Every check is replayed on the execution paths
// (fresh Model.CheckGoal, Session.CheckContext, service engine, graph
// fast path) with certification on, and sim-safe scenarios additionally
// run the differential oracle on a fixed random stream.

// CorpusCheck is one expected verdict of a corpus scenario: a request
// spec, so corpus files read like service requests, plus the answer.
type CorpusCheck struct {
	pipeline.Spec
	// Expect is the pinned verdict: true = verified.
	Expect bool
}

// CorpusScenario is a corpus file: a scenario plus its pinned checks.
type CorpusScenario struct {
	*Scenario
	Path   string
	Checks []CorpusCheck
}

// LoadCorpusFile parses one corpus file.
func LoadCorpusFile(path string) (*CorpusScenario, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	cs := &CorpusScenario{Path: path}
	simSafe := false
	var texts []string
	var cur *strings.Builder
	for ln, line := range strings.Split(string(raw), "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "---") {
			texts = append(texts, "")
			cur = &strings.Builder{}
			continue
		}
		if cur != nil {
			cur.WriteString(line)
			cur.WriteString("\n")
			texts[len(texts)-1] = cur.String()
			continue
		}
		// Directive section.
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(trimmed, "simsafe:"):
			v := strings.TrimSpace(strings.TrimPrefix(trimmed, "simsafe:"))
			simSafe = v == "true"
		case strings.HasPrefix(trimmed, "check:"):
			ck, err := parseCheck(strings.TrimSpace(strings.TrimPrefix(trimmed, "check:")))
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %w", path, ln+1, err)
			}
			cs.Checks = append(cs.Checks, ck)
		default:
			return nil, fmt.Errorf("%s:%d: unknown directive %q", path, ln+1, trimmed)
		}
	}
	if len(texts) == 0 {
		return nil, fmt.Errorf("%s: no configuration blocks", path)
	}
	if len(cs.Checks) == 0 {
		return nil, fmt.Errorf("%s: no checks", path)
	}
	s, err := NewScenario(name, simSafe, texts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	cs.Scenario = s
	return cs, nil
}

func parseCheck(s string) (CorpusCheck, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return CorpusCheck{}, fmt.Errorf("empty check")
	}
	ck := CorpusCheck{Spec: pipeline.Spec{Check: fields[0]}}
	seenExpect := false
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return CorpusCheck{}, fmt.Errorf("malformed check field %q (want key=value)", f)
		}
		switch k {
		case "src":
			ck.Src = v
		case "via":
			ck.Via = v
		case "subnet":
			ck.Subnet = v
		case "hops":
			n, err := strconv.Atoi(v)
			if err != nil {
				return CorpusCheck{}, fmt.Errorf("bad hops %q", v)
			}
			ck.Hops = n
		case "maxfail":
			n, err := strconv.Atoi(v)
			if err != nil {
				return CorpusCheck{}, fmt.Errorf("bad maxfail %q", v)
			}
			ck.MaxFailures = n
		case "expect":
			switch v {
			case "verified":
				ck.Expect = true
			case "falsified":
				ck.Expect = false
			default:
				return CorpusCheck{}, fmt.Errorf("bad expect %q (want verified|falsified)", v)
			}
			seenExpect = true
		default:
			return CorpusCheck{}, fmt.Errorf("unknown check field %q", k)
		}
	}
	if !seenExpect {
		return CorpusCheck{}, fmt.Errorf("check %q has no expect=", s)
	}
	return ck, nil
}

// LoadCorpus loads every *.txt scenario in the directory, sorted by name.
func LoadCorpus(dir string) ([]*CorpusScenario, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.txt"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := make([]*CorpusScenario, 0, len(paths))
	for _, p := range paths {
		cs, err := LoadCorpusFile(p)
		if err != nil {
			return nil, err
		}
		out = append(out, cs)
	}
	return out, nil
}

// Verify replays the corpus scenario: every check must reproduce its
// pinned verdict on the fresh-check, session and service paths (all with
// certification on), and sim-safe scenarios run the differential oracle
// over a few environments from the given stream.
func (cs *CorpusScenario) Verify(rng *rand.Rand, simIters int) error {
	goals := make([]tiered.Goal, len(cs.Checks))
	for i, ck := range cs.Checks {
		var err error
		if goals[i], err = ck.Goal(); err != nil {
			return fmt.Errorf("%s: check %d: %w", cs.Path, i, err)
		}
	}
	// checkAll answers every check through check on one model and holds
	// the verdict to the pinned one and to the certification invariant.
	checkAll := func(path string, m *core.Model, check checkFn) error {
		for i, ck := range cs.Checks {
			prop, assumptions, err := pipeline.Property(m, goals[i])
			if err != nil {
				return fmt.Errorf("%s: %s check %d: %w", cs.Path, path, i, err)
			}
			res, err := check(context.Background(), prop, assumptions...)
			if err != nil {
				return fmt.Errorf("%s: %s check %d (%s): %w", cs.Path, path, i, ck.Check, err)
			}
			if res.Verified != ck.Expect {
				return fmt.Errorf("%s: %s check %d (%s src=%s subnet=%s): got verified=%v want %v",
					cs.Path, path, i, ck.Check, ck.Src, ck.Subnet, res.Verified, ck.Expect)
			}
			if res.Verified && (res.Certificate == nil || !res.Certificate.Checked) {
				return fmt.Errorf("%s: %s check %d: verified without checked certificate", cs.Path, path, i)
			}
		}
		return nil
	}

	// Path 1: fresh Model.CheckGoal per check.
	m, err := cs.Encode("")
	if err != nil {
		return err
	}
	if err := checkAll("fresh", m, freshCheck(m)); err != nil {
		return err
	}

	// Path 2: one incremental session answering all checks.
	ms, err := cs.Encode("")
	if err != nil {
		return err
	}
	if err := checkAll("session", ms, ms.NewSession().CheckContext); err != nil {
		return err
	}

	// Path 3: the service engine, pinned to the solver on the whole
	// network; the graph fast path is replayed separately below and the
	// assume/guarantee pipeline has its own parity sweep.
	eng := service.NewEngine(engineOptions(pinned("")))
	defer eng.Close()
	for i, ck := range cs.Checks {
		v, err := eng.Verify(context.Background(), &service.Request{Configs: cs.configs(), Spec: ck.Spec})
		if err != nil {
			return fmt.Errorf("%s: service check %d (%s): %w", cs.Path, i, ck.Check, err)
		}
		if v.Verified != ck.Expect {
			return fmt.Errorf("%s: service check %d (%s): got verified=%v want %v",
				cs.Path, i, ck.Check, v.Verified, ck.Expect)
		}
		if v.Verified && (v.Proof == nil || !v.Proof.Checked) {
			return fmt.Errorf("%s: service check %d: verified without checked proof", cs.Path, i)
		}
	}

	// Path 4: the graph fast path. It may return residue on any check,
	// but every verdict it claims to decide must reproduce the pinned
	// SAT verdict — the corpus doubles as the tier's soundness suite.
	a := tiered.NewAnalysis(cs.Net.Graph)
	for i, ck := range cs.Checks {
		out := a.Decide(goals[i])
		if out.Decided && out.Verified != ck.Expect {
			return fmt.Errorf("%s: graph-tier check %d (%s src=%s subnet=%s): decided verified=%v (reason %s), want %v",
				cs.Path, i, ck.Check, ck.Src, ck.Subnet, out.Verified, out.Reason, ck.Expect)
		}
	}

	if cs.SimSafe && simIters > 0 {
		if err := cs.DiffVsSim(rng, simIters); err != nil {
			return err
		}
	}
	return nil
}
