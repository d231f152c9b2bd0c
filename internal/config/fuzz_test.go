package config_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/config"
	"repro/internal/testnets"
)

// FuzzParse is the fuzz target in front of the parser, the first thing a
// request body reaches: Parse never panics on any text, and text it
// accepts prints to a fixed point of Print∘Parse (TestPrintParseRoundTrip
// checks the same for one sample). It lives in the external test package
// because testnets, whose routers seed it, imports config.
func FuzzParse(f *testing.F) {
	f.Add(config.SampleR1)
	examples, err := filepath.Glob("../../examples/*/*")
	if err != nil || len(examples) == 0 {
		f.Fatalf("no example files to seed from: %v", err)
	}
	for _, path := range examples {
		text, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(text))
	}
	for _, net := range []*testnets.Net{
		testnets.OSPFChain(3), testnets.RIPChain(3), testnets.EBGPTriangle(), testnets.Figure2(),
		testnets.ACLSquare(), testnets.StaticNull(), testnets.Hijackable(true), testnets.MultihopIBGP(),
	} {
		for _, r := range net.Routers {
			f.Add(config.Print(r))
		}
	}
	f.Fuzz(func(t *testing.T, text string) {
		r, err := config.Parse(text)
		if err != nil {
			return
		}
		printed := config.Print(r)
		again, err := config.Parse(printed)
		if err != nil {
			t.Fatalf("printed config does not parse: %v\n%s", err, printed)
		}
		if got := config.Print(again); got != printed {
			t.Fatalf("print is not a fixed point of parse∘print:\n%s\n--- reprinted as\n%s", printed, got)
		}
	})
}
