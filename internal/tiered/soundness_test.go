package tiered_test

import (
	"testing"

	"repro/internal/fuzz"
	"repro/internal/tiered"
)

// TestSoundnessOnRegressionCorpus replays every network in the fuzz
// regression corpus through the graph tier: each corpus check carries
// the SAT pipeline's recorded verdict (expect=verified|falsified), and
// any check the tier claims to decide must reproduce it exactly. The
// tier is free to return residue — that is the design — but a decided
// disagreement is a soundness bug.
func TestSoundnessOnRegressionCorpus(t *testing.T) {
	corpus, err := fuzz.LoadCorpus("../fuzz/testdata/regressions")
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) == 0 {
		t.Fatal("empty regression corpus")
	}
	decided, covered := 0, 0
	for _, cs := range corpus {
		cs := cs
		t.Run(cs.Name, func(t *testing.T) {
			a := tiered.NewAnalysis(cs.Net.Graph)
			for i, ck := range cs.Checks {
				goal, err := ck.Goal()
				if err != nil {
					t.Fatalf("check %d: %v", i, err)
				}
				covered++
				out := a.Decide(goal)
				if !out.Decided {
					t.Logf("check %d (%s src=%s subnet=%s): residue (%s)",
						i, ck.Check, ck.Src, ck.Subnet, out.Reason)
					continue
				}
				decided++
				if out.Verified != ck.Expect {
					t.Errorf("check %d (%s src=%s subnet=%s maxfail=%d): graph tier decided verified=%v (reason %s), recorded SAT verdict %v",
						i, ck.Check, ck.Src, ck.Subnet, ck.MaxFailures, out.Verified, out.Reason, ck.Expect)
				}
				if len(out.Blame) == 0 {
					t.Errorf("check %d (%s): decided verdict carries no blame", i, ck.Check)
				}
			}
		})
	}
	t.Logf("graph tier decided %d of %d corpus checks", decided, covered)
	if decided == 0 {
		t.Error("graph tier decided no corpus check at all; the fast path is dead on the corpus")
	}
}
