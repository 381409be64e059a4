package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHandlerMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits_total").Add(7)
	refreshed := 0
	h := NewHandler(Ops{Registry: reg, Refresh: func() { refreshed++; reg.Gauge("derived_now").Set(42) }})

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	body := rr.Body.String()
	if !strings.Contains(body, "hits_total 7") || !strings.Contains(body, "derived_now 42") {
		t.Fatalf("metrics body:\n%s", body)
	}
	if refreshed != 1 {
		t.Fatalf("refresh ran %d times", refreshed)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics?format=json", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("json content type = %q", ct)
	}
	if !strings.Contains(rr.Body.String(), `"hits_total": 7`) {
		t.Fatalf("json body:\n%s", rr.Body.String())
	}
}

// TestHandlerPprof: the runtime's profiles are mounted under /debug/pprof/,
// on any Ops, wired or not.
func TestHandlerPprof(t *testing.T) {
	h := NewHandler(Ops{})
	for _, url := range []string{"/debug/pprof/", "/debug/pprof/goroutine?debug=1", "/debug/pprof/cmdline"} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", url, nil))
		if rr.Code != 200 {
			t.Fatalf("GET %s = %d: %s", url, rr.Code, rr.Body.String())
		}
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/pprof/goroutine?debug=1", nil))
	if !strings.Contains(rr.Body.String(), "goroutine profile") {
		t.Fatalf("goroutine profile body:\n%s", rr.Body.String())
	}
}

func TestServe(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up_total").Inc()
	srv, addr, err := Serve("127.0.0.1:0", NewHandler(Ops{Registry: reg}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(b), "up_total 1") {
		t.Fatalf("served body: %s", b)
	}
}
