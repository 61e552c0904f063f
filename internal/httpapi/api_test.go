package httpapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	Handler().ServeHTTP(rec, req)
	return rec
}

func post(t *testing.T, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	Handler().ServeHTTP(rec, req)
	return rec
}

func TestModelsEndpoint(t *testing.T) {
	rec := get(t, "/v1/models")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var out []ModelInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if len(out) != 9 {
		t.Fatalf("%d models, want 9", len(out))
	}
	for _, m := range out {
		if m.Kernels < 1 || m.RightSize < 1 || m.RightSize > 60 {
			t.Errorf("bad row %+v", m)
		}
	}
}

func TestProfileEndpoint(t *testing.T) {
	rec := get(t, "/v1/profile?model=squeezenet")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var entries []struct {
		Name  string `json:"name"`
		MinCU int    `json:"min_cu"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &entries); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("empty profile")
	}
	for _, e := range entries {
		if e.MinCU < 1 || e.MinCU > 60 {
			t.Errorf("minCU out of range: %+v", e)
		}
	}
}

func TestProfileEndpointErrors(t *testing.T) {
	if rec := get(t, "/v1/profile?model=nope"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown model: status %d", rec.Code)
	}
	if rec := get(t, "/v1/profile?model=albert&batch=zero"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad batch: status %d", rec.Code)
	}
}

func TestSimulateEndpoint(t *testing.T) {
	rec := post(t, "/v1/simulate",
		`{"model":"squeezenet","policy":"krisp-i","workers":2,"quick":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var out SimulateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if out.RPS <= 0 || out.P95Ms <= 0 || out.EnergyPerInference <= 0 {
		t.Errorf("degenerate response %+v", out)
	}
	if out.Policy != "krisp-i" || out.Workers != 2 {
		t.Errorf("echo fields wrong: %+v", out)
	}
}

func TestSimulateOpenLoop(t *testing.T) {
	rec := post(t, "/v1/simulate",
		`{"model":"squeezenet","policy":"krisp-i","workers":2,"quick":true,"rate_per_sec":1000}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var out SimulateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if out.OfferedRPS != 1000 || out.CompletedRPS <= 0 || out.RequestP95Ms <= 0 {
		t.Errorf("open-loop fields missing: %+v", out)
	}
}

func TestSimulateValidation(t *testing.T) {
	cases := []struct {
		name, body string
		want       int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"unknown model", `{"model":"nope","policy":"krisp-i","workers":1}`, http.StatusBadRequest},
		{"unknown policy", `{"model":"albert","policy":"nope","workers":1}`, http.StatusBadRequest},
		{"zero workers", `{"model":"albert","policy":"krisp-i","workers":0}`, http.StatusBadRequest},
		{"too many workers", `{"model":"albert","policy":"krisp-i","workers":17}`, http.StatusBadRequest},
		{"huge batch", `{"model":"albert","policy":"krisp-i","workers":1,"batch":999}`, http.StatusBadRequest},
		{"negative rate", `{"model":"albert","policy":"krisp-i","workers":1,"rate_per_sec":-5}`, http.StatusBadRequest},
		{"huge rate", `{"model":"albert","policy":"krisp-i","workers":1,"rate_per_sec":1e8}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if rec := post(t, "/v1/simulate", c.body); rec.Code != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.name, rec.Code, c.want, rec.Body)
		}
	}
	// Validation errors must say what the valid inputs are.
	rec := post(t, "/v1/simulate", `{"model":"nope","policy":"krisp-i","workers":1}`)
	if !strings.Contains(rec.Body.String(), "available") {
		t.Errorf("unknown-model error does not list models: %s", rec.Body)
	}
	rec = post(t, "/v1/simulate", `{"model":"albert","policy":"nope","workers":1}`)
	if !strings.Contains(rec.Body.String(), "krisp-i") {
		t.Errorf("unknown-policy error does not list policies: %s", rec.Body)
	}
	rec = post(t, "/v1/simulate", `{"model":"albert","policy":"krisp-i","workers":1,"rate_per_sec":1e8}`)
	if !strings.Contains(rec.Body.String(), "[0,1000000]") {
		t.Errorf("rate error does not name the valid range: %s", rec.Body)
	}
}

func TestSimulateHonorsCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate",
		strings.NewReader(`{"model":"squeezenet","policy":"krisp-i","workers":2,"quick":true}`)).
		WithContext(ctx)
	rec := httptest.NewRecorder()
	Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestTimeout {
		t.Fatalf("canceled request: status %d, want %d (%s)", rec.Code, http.StatusRequestTimeout, rec.Body)
	}
}

func TestExperimentEndpoints(t *testing.T) {
	rec := get(t, "/v1/experiments")
	if rec.Code != http.StatusOK {
		t.Fatalf("list status %d", rec.Code)
	}
	var ids []string
	if err := json.Unmarshal(rec.Body.Bytes(), &ids); err != nil || len(ids) < 14 {
		t.Fatalf("experiment list: %v %v", ids, err)
	}
	rec = get(t, "/v1/experiments/fig7")
	if rec.Code != http.StatusOK {
		t.Fatalf("fig7 status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "conserved") {
		t.Errorf("fig7 body missing policies: %s", rec.Body)
	}
	if rec := get(t, "/v1/experiments/nope"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown experiment: status %d", rec.Code)
	}
}

func TestMethodRouting(t *testing.T) {
	if rec := post(t, "/v1/models", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/models: status %d, want 405", rec.Code)
	}
}

func TestChaosList(t *testing.T) {
	rec := httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/chaos", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	var out []ChaosInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad json: %v", err)
	}
	names := map[string]bool{}
	for _, s := range out {
		if s.Description == "" {
			t.Fatalf("scenario %q has no description", s.Name)
		}
		names[s.Name] = true
	}
	for _, want := range []string{"gray-node", "flapping-gpu", "rack-loss", "overload-burst"} {
		if !names[want] {
			t.Fatalf("scenario %q missing from %v", want, names)
		}
	}
}
