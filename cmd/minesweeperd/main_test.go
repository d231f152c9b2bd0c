package main

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain runs the daemon's main when the test binary is started with
// "minesweeperd" as its first argument, so a test can drive main's flag
// handling and exit codes in a child process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "minesweeperd" {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestInvalidFlagsExit2: a flag value the daemon cannot serve with is a
// usage error — exit status 2 and a line naming it on stderr — before
// anything listens.
func TestInvalidFlagsExit2(t *testing.T) {
	for _, c := range []struct{ flag, value, want string }{
		{"-tiers", "graph,smt", "smt"},
		{"-passes", "fold", `unknown pass "fold"`},
		{"-log-level", "loud", `unknown -log-level "loud"`},
	} {
		// A daemon that accepted the value would serve until killed.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		cmd := exec.CommandContext(ctx, os.Args[0], "minesweeperd", "-listen", "127.0.0.1:0", c.flag, c.value)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("%s %s: %v, want exit status 2\n%s", c.flag, c.value, err, out)
		}
		if !strings.HasPrefix(string(out), "minesweeperd: ") || !strings.Contains(string(out), c.want) {
			t.Fatalf("%s %s: stderr %q, want a line naming %q", c.flag, c.value, out, c.want)
		}
	}
}

// serveShort serves h on a loopback listener through newServer with its
// ReadTimeout cut to d, so a test can outlast it.
func serveShort(t *testing.T, d time.Duration, h http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer("", h)
	srv.ReadTimeout = d
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestReadTimeoutBoundsTheUploadOnly: a handler that runs past the
// server's ReadTimeout, as a long verify job or an events stream does,
// still answers, and its request's context is not cancelled; a body sent
// slower than ReadTimeout is cut off. WriteTimeout stays unset.
func TestReadTimeoutBoundsTheUploadOnly(t *testing.T) {
	const readTimeout = 100 * time.Millisecond
	if srv := newServer(":0", http.NotFoundHandler()); srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 || srv.WriteTimeout != 0 {
		t.Fatalf("read %v, idle %v, write %v: want reading and idling bounded, writing not",
			srv.ReadTimeout, srv.IdleTimeout, srv.WriteTimeout)
	}
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.ReadAll(r.Body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		select {
		case <-r.Context().Done():
			http.Error(w, "context cancelled while answering", http.StatusServiceUnavailable)
		case <-time.After(4 * readTimeout):
			io.WriteString(w, "verdict")
		}
	})
	addr := serveShort(t, readTimeout, slow)
	for _, method := range []string{http.MethodPost, http.MethodGet} {
		var body io.Reader
		if method == http.MethodPost {
			body = strings.NewReader(`{"check":"reachability"}`)
		}
		req, err := http.NewRequest(method, "http://"+addr+"/v1/verify", body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(got) != "verdict" {
			t.Fatalf("%s: status %d, body %q; want the verdict after the read timeout", method, resp.StatusCode, got)
		}
	}

	// A client that sends its headers and then stalls mid-body.
	readErr := make(chan error, 1)
	addr = serveShort(t, readTimeout, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, err := io.ReadAll(r.Body)
		readErr <- err
	}))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/verify HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n{"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-readErr:
		if err == nil {
			t.Fatal("a stalled body was read without error")
		}
	case <-time.After(30 * readTimeout):
		t.Fatal("a stalled body held the handler past the read timeout")
	}
}
