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
	var ts TraceStore
	h := NewHandler(Ops{Registry: reg, Traces: &ts, Refresh: func() { refreshed++; reg.Gauge("derived_now").Set(42) }})

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

func TestHandlerTraceLast(t *testing.T) {
	reg := NewRegistry()
	var ts TraceStore
	h := NewHandler(Ops{Registry: reg, Traces: &ts})

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/trace/last", nil))
	if !strings.Contains(rr.Body.String(), "no trace recorded") {
		t.Fatalf("empty trace body: %s", rr.Body.String())
	}

	ts.Set("SELECT 1", &TraceNode{Name: "Scan(T)", Opens: 1, Rows: 3})
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/trace/last", nil))
	body := rr.Body.String()
	if !strings.Contains(body, "-- SELECT 1") || !strings.Contains(body, "Scan(T)") {
		t.Fatalf("trace body:\n%s", body)
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
