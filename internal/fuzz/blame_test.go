package fuzz

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/provenance"
	"repro/internal/smt"
)

// blameOptions is the default pipeline with blame extraction on (which
// implies proof logging and origin tracking).
func blameOptions() core.Options {
	o := core.DefaultOptions()
	o.Blame = true
	return o
}

// corpusBlame answers one corpus check on a fresh model with blame on and
// returns the blame set. The caller picks checks whose pinned verdict is
// verified (UNSAT), so a missing certificate-backed core is an error.
func corpusBlame(cs *CorpusScenario, ck CorpusCheck) ([]provenance.Origin, error) {
	m, err := core.Encode(cs.Net.Graph, blameOptions())
	if err != nil {
		return nil, err
	}
	prop, assumptions, err := corpusProperty(m, ck)
	if err != nil {
		return nil, err
	}
	res, err := m.CheckGoal(context.Background(), nil, prop, assumptions...)
	if err != nil {
		return nil, err
	}
	if !res.Verified {
		return nil, fmt.Errorf("pinned-verified check came back falsified")
	}
	return res.Blame, nil
}

// hostnameOf extracts the router name from one config text.
func hostnameOf(txt string) string {
	for _, line := range strings.Split(txt, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "hostname "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// removeRouters drops the configs of the named routers, the mutation the
// blame contract is tested against: every blamed stanza lives in some
// blamed router's config, so removing those configs removes (a superset
// of) the blamed stanzas.
func removeRouters(texts []string, drop map[string]bool) []string {
	var out []string
	for _, txt := range texts {
		if !drop[hostnameOf(txt)] {
			out = append(out, txt)
		}
	}
	return out
}

// TestCorpusBlame pins the blame contract on every UNSAT (expect=verified)
// check of the regression corpus: the blame set is non-empty, identical
// across independent encode+check runs, and removing the blamed stanzas
// flips the verdict or vacates the query (the mutated network no longer
// builds, encodes, or supports the property).
func TestCorpusBlame(t *testing.T) {
	corpus, err := LoadCorpus("testdata/regressions")
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range corpus {
		cs := cs
		t.Run(cs.Name, func(t *testing.T) {
			for i, ck := range cs.Checks {
				if !ck.Expect {
					continue
				}
				blame, err := corpusBlame(cs, ck)
				if err != nil {
					t.Fatalf("check %d (%s): %v", i, ck.Check, err)
				}
				if len(blame) == 0 {
					t.Fatalf("check %d (%s): empty blame set on an UNSAT verdict", i, ck.Check)
				}
				again, err := corpusBlame(cs, ck)
				if err != nil {
					t.Fatalf("check %d (%s): rerun: %v", i, ck.Check, err)
				}
				got, want := strings.Join(provenance.Strings(again), "\n"), strings.Join(provenance.Strings(blame), "\n")
				if got != want {
					t.Fatalf("check %d (%s): blame set not deterministic:\nrun 1:\n%s\nrun 2:\n%s", i, ck.Check, want, got)
				}

				// The mutation: drop every blamed router's config and re-ask
				// the same question.
				drop := map[string]bool{}
				for _, o := range blame {
					if o.Router != "" {
						drop[o.Router] = true
					}
				}
				if len(drop) == 0 {
					t.Fatalf("check %d (%s): blame names no router:\n%s", i, ck.Check, want)
				}
				texts := removeRouters(cs.Texts, drop)
				if len(texts) == 0 {
					continue // every router blamed: the query is vacated
				}
				verified, vacated := mutatedVerdict(cs.Name, texts, ck)
				if vacated {
					continue
				}
				if verified {
					t.Errorf("check %d (%s): still verified after removing blamed routers %v\nblame:\n%s",
						i, ck.Check, keys(drop), want)
				}
			}
		})
	}
}

// mutatedVerdict re-asks a check on the mutated configs. Any failure to
// build, encode, construct the property (the builders panic on a removed
// src router) or solve counts as "vacated": the query no longer applies
// once the blamed stanzas are gone.
func mutatedVerdict(name string, texts []string, ck CorpusCheck) (verified, vacated bool) {
	defer func() {
		if recover() != nil {
			verified, vacated = false, true
		}
	}()
	mut, err := NewScenario(name+"-mutated", false, texts)
	if err != nil {
		return false, true
	}
	m, err := core.Encode(mut.Net.Graph, blameOptions())
	if err != nil {
		return false, true
	}
	prop, assumptions, err := corpusProperty(m, ck)
	if err != nil {
		return false, true
	}
	res, err := m.CheckGoal(context.Background(), nil, prop, assumptions...)
	if err != nil {
		return false, true
	}
	return res.Verified, false
}

// corpusProperty builds a corpus check's query on m through the
// pipeline's two mappings (spec → goal → property).
func corpusProperty(m *core.Model, ck CorpusCheck) (*smt.Term, []*smt.Term, error) {
	goal, err := ck.Goal()
	if err != nil {
		return nil, nil, err
	}
	return pipeline.Property(m, goal)
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
