package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
)

// FuzzRequestDecode drives a request body through what POST /v1/verify
// does before a job runs: decode it into a Request, then Engine.Submit.
// The engine has no workers, so jobs queue and none runs. No body may
// panic, and every refusal is the client's mistake (a
// *pipeline.RequestError) or a full queue.
func FuzzRequestDecode(f *testing.F) {
	for _, check := range []string{"reachability", "isolation", "bounded-length", "waypoint",
		"mgmt-reachability", "blackholes", "multipath-consistency", "loops", "no-leak",
		"fault-invariance", "equivalence"} {
		body, err := json.Marshal(Request{Configs: chainConfigs(2), Spec: Spec{Check: check,
			Src: "R1", Via: "R2", Subnet: "10.100.2.0/24", Pair: "R1,R2"}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"configs":{"a":"hostname A\n"},"check":"equivalence","pair":"A,"}`))
	f.Add([]byte(`{"configs":{"a":""},"check":"reachability","src":"A","subnet":"10.0.0.0/33","max_failures":-1}`))
	e := &Engine{
		opts:  Options{Timeout: time.Minute, EventBuffer: 16, Trace: obs.New("service")},
		jobCh: make(chan *Job, 4),
		jobs:  map[string]*Job{},
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req Request
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		_, err := e.Submit(&req)
		var bad *pipeline.RequestError
		if err != nil && !errors.As(err, &bad) && !errors.Is(err, ErrQueueFull) {
			t.Fatalf("Submit(%s) refused with %T %v, want a RequestError or a full queue", body, err, err)
		}
	})
}
