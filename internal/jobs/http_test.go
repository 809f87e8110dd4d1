package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kmachine/internal/algo"
	"kmachine/internal/transport"
)

// TestHTTPAPI drives the full control surface over real HTTP: submit
// two different algorithms, poll to completion, assert the result
// hashes against fresh single-run references, check status and list,
// then drain and verify intake is closed.
func TestHTTPAPI(t *testing.T) {
	const k = 3
	s := New(inmemBackend{k: k}, Options{})
	defer s.Close()
	mux := http.NewServeMux()
	s.RegisterAPI(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	post := func(path string, body any) (*http.Response, []byte) {
		t.Helper()
		buf, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		out.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp, out.Bytes()
	}
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		out.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp, out.Bytes()
	}

	// Submit two different algorithms.
	subs := []SubmitRequest{
		{Algo: "pagerank", N: 120, Seed: 7},
		{Algo: "conncomp", N: 120, Seed: 7},
	}
	ids := make([]uint64, len(subs))
	for i, sr := range subs {
		resp, body := post("/api/v1/jobs", sr)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: %d %s", sr.Algo, resp.StatusCode, body)
		}
		var acc struct {
			ID    uint64 `json:"id"`
			State State  `json:"state"`
		}
		if err := json.Unmarshal(body, &acc); err != nil {
			t.Fatal(err)
		}
		if acc.ID == 0 || acc.State != StateQueued {
			t.Fatalf("submit %s returned %s", sr.Algo, body)
		}
		ids[i] = acc.ID
	}

	// Poll each to completion and check the result hash against a fresh
	// single-run reference.
	for i, id := range ids {
		var j JobJSON
		deadline := time.Now().Add(30 * time.Second)
		for {
			resp, body := get(fmt.Sprintf("/api/v1/jobs/%d", id))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %d %s", id, resp.StatusCode, body)
			}
			if err := json.Unmarshal(body, &j); err != nil {
				t.Fatal(err)
			}
			if j.State == StateDone || j.State == StateFailed {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d stuck in %q", id, j.State)
			}
			time.Sleep(2 * time.Millisecond)
		}
		if j.State != StateDone {
			t.Fatalf("job %d failed: %s", id, j.Error)
		}
		if j.Result == nil || j.Result.Hash == "" {
			t.Fatalf("done job %d has no result hash", id)
		}
		entry, _ := algo.Lookup(subs[i].Algo)
		ref, err := entry.Run(algo.Problem{N: subs[i].N, K: k, Seed: subs[i].Seed}, transport.InMem)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("%016x", ref.Hash); j.Result.Hash != want {
			t.Errorf("job %d hash %s over HTTP, reference %s", id, j.Result.Hash, want)
		}
		if j.Result.Rounds != ref.Stats.Rounds {
			t.Errorf("job %d rounds %d over HTTP, reference %d", id, j.Result.Rounds, ref.Stats.Rounds)
		}
	}

	// List and scheduler status.
	resp, body := get("/api/v1/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d", resp.StatusCode)
	}
	var list []JobJSON
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != len(ids) {
		t.Fatalf("list has %d jobs, want %d", len(list), len(ids))
	}
	resp, body = get("/api/v1/status")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d", resp.StatusCode)
	}
	var st StatusJSON
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.K != k || st.Done != int64(len(ids)) || st.Draining {
		t.Errorf("scheduler status %s", body)
	}

	// Error paths: bad algo 400, unknown job 404, bad id 400.
	if resp, _ := post("/api/v1/jobs", SubmitRequest{Algo: "no-such", N: 10}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad algo: %d, want 400", resp.StatusCode)
	}
	if resp, _ := get("/api/v1/jobs/9999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", resp.StatusCode)
	}
	if resp, _ := get("/api/v1/jobs/zzz"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id: %d, want 400", resp.StatusCode)
	}

	// Drain, then intake must answer 503.
	resp, body = post("/api/v1/drain", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: %d %s", resp.StatusCode, body)
	}
	if resp, _ := post("/api/v1/jobs", SubmitRequest{Algo: "pagerank", N: 100, Seed: 1}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit: %d, want 503", resp.StatusCode)
	}
}

// TestHTTPCancel drives DELETE /api/v1/jobs/{id} end to end: a queued
// job cancels to 200 + canceled state, an unknown ID answers 404, a
// finished job answers 409, and a malformed ID answers 400.
func TestHTTPCancel(t *testing.T) {
	const k = 3
	b, err := NewMeshBackend(k)
	if err != nil {
		t.Fatal(err)
	}
	s := New(b, Options{})
	defer s.Close()
	mux := http.NewServeMux()
	s.RegisterAPI(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	del := func(path string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		out.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp, out.Bytes()
	}

	// A slow first job keeps the second one queued for the cancel.
	stall := func() { time.Sleep(100 * time.Millisecond) }
	chaosHook.Store(&stall)
	defer chaosHook.Store(nil)
	id1, err := s.Submit(Request{Algo: "testjob-chaos", Prob: algo.Problem{N: 60, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.Submit(Request{Algo: "pagerank", Prob: algo.Problem{N: 120, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}

	resp, body := del(fmt.Sprintf("/api/v1/jobs/%d", id2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued job: %d %s, want 200", resp.StatusCode, body)
	}
	var j JobJSON
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	if j.State != StateCanceled {
		t.Errorf("canceled job state %q over HTTP, want canceled", j.State)
	}

	if resp, _ := del("/api/v1/jobs/9999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown job: %d, want 404", resp.StatusCode)
	}
	if resp, _ := del("/api/v1/jobs/zzz"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("cancel bad id: %d, want 400", resp.StatusCode)
	}

	if j := waitState(t, s, id1); j.State != StateDone {
		t.Fatalf("job %d ended %q: %s", id1, j.State, j.Err)
	}
	if resp, body := del(fmt.Sprintf("/api/v1/jobs/%d", id1)); resp.StatusCode != http.StatusConflict {
		t.Errorf("cancel finished job: %d %s, want 409", resp.StatusCode, body)
	}
}

// TestHTTPCheckpointedSubmit: the checkpoint_every knob round-trips
// through the JSON surface — an opted-in job severed mid-run completes
// with recoveries reported in its result.
func TestHTTPCheckpointedSubmit(t *testing.T) {
	const k = 3
	b, err := NewMeshBackend(k)
	if err != nil {
		t.Fatal(err)
	}
	s := New(b, Options{})
	defer s.Close()
	mux := http.NewServeMux()
	s.RegisterAPI(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var kill func()
	kill = func() {
		chaosHook.Store(nil)
		b.Sever(2)
	}
	chaosHook.Store(&kill)
	defer chaosHook.Store(nil)

	buf, _ := json.Marshal(SubmitRequest{Algo: "testjob-chaos", N: 60, Seed: 5, CheckpointEvery: 1})
	resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	var acc struct {
		ID uint64 `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	j := waitState(t, s, acc.ID)
	if j.State != StateDone {
		t.Fatalf("severed checkpointed job ended %q: %s", j.State, j.Err)
	}
	var jj JobJSON
	gresp, err := http.Get(srv.URL + fmt.Sprintf("/api/v1/jobs/%d", acc.ID))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(gresp.Body).Decode(&jj); err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if jj.Result == nil || jj.Result.Recoveries < 1 {
		t.Errorf("result over HTTP reports no recoveries: %+v", jj.Result)
	}
}

// TestHTTPRejectsImpossibleProblems is the regression for the daemon
// kill: an edge probability outside [0,1] (or an n beyond int32 vertex
// IDs) used to reach the generator, which panicked on the executor
// goroutine and took the resident daemon down. A negative
// checkpoint_every or timeout_ms, or a timeout_ms that overflows a
// duration, used to run with checkpointing or the deadline silently
// off (or wrapped). A negative top used to panic the executor in
// PageRank's summary, and a reset probability outside (0,1) used to be
// accepted and fail only in the machine constructor. All must bounce at intake with 400, and the jobs
// after them — including an n below 10, whose default 10/n is clamped
// to a probability — must still run.
func TestHTTPRejectsImpossibleProblems(t *testing.T) {
	const k = 3
	s := New(inmemBackend{k: k}, Options{})
	defer s.Close()
	mux := http.NewServeMux()
	s.RegisterAPI(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	for _, body := range []string{
		`{"algo":"conncomp","n":1000,"edge_p":2}`,
		`{"algo":"conncomp","n":1000,"edge_p":-0.5}`,
		`{"algo":"conncomp","n":3000000000}`,
		`{"algo":"conncomp","n":1000,"checkpoint_every":-1}`,
		`{"algo":"conncomp","n":1000,"timeout_ms":-1}`,
		// Both overflow time.Duration in milliseconds: the first wraps
		// negative, the second to a deadline under a millisecond.
		`{"algo":"conncomp","n":1000,"timeout_ms":9223372036855}`,
		`{"algo":"conncomp","n":1000,"timeout_ms":18446744073710}`,
		`{"algo":"pagerank","n":100,"top":-1}`,
		`{"algo":"pagerank","n":100,"eps":1.5}`,
		`{"algo":"pagerank","n":100,"eps":-0.2}`,
		`{"algo":"pagerank","n":100,"eps":1}`,
	} {
		resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: %d %s, want 400", body, resp.StatusCode, msg.String())
		}
	}

	for _, n := range []int{5, 120} {
		id, err := s.Submit(Request{Algo: "conncomp", Prob: algo.Problem{N: n, Seed: 7}})
		if err != nil {
			t.Fatalf("submit n=%d after the rejected jobs: %v", n, err)
		}
		if j := waitState(t, s, id); j.State != StateDone {
			t.Fatalf("job n=%d after the rejected jobs ended %q: %s", n, j.State, j.Err)
		}
	}
}

// TestHTTPBoundsTheSubmitBody: intake reads at most 1 MiB of a submit
// body and answers 413 beyond it, rejects a body with anything after its
// JSON object with 400, and the scheduler still runs the next job to
// done.
func TestHTTPBoundsTheSubmitBody(t *testing.T) {
	s := New(inmemBackend{k: 3}, Options{})
	defer s.Close()
	mux := http.NewServeMux()
	s.RegisterAPI(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	for _, c := range []struct {
		name, body string
		want       int
	}{
		{"oversized", `{"algo":"conncomp","n":1000,"pad":"` + strings.Repeat("x", 1<<20) + `"}`, http.StatusRequestEntityTooLarge},
		{"trailing object", `{"algo":"conncomp","n":1000} {"algo":"conncomp","n":5}`, http.StatusBadRequest},
		{"trailing garbage", `{"algo":"conncomp","n":1000}}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s body: %d %s, want %d", c.name, resp.StatusCode, msg.String(), c.want)
		}
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Fatalf("rejected bodies queued %d jobs", len(jobs))
	}

	resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", strings.NewReader(`{"algo":"conncomp","n":120,"seed":7}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID uint64 `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		t.Fatalf("sound body after the rejected ones: %d, %v", resp.StatusCode, err)
	}
	if j := waitState(t, s, sub.ID); j.State != StateDone {
		t.Fatalf("job after the rejected bodies ended %q: %s", j.State, j.Err)
	}
}

// TestHTTPRejectsNegativeBandwidth is the regression for the poisoned
// mesh: {"bandwidth":-1} used to be accepted (202), fail at run time on
// every machine after the job's endpoints had attached, and cost the
// daemon a mesh rebuild. It must bounce at intake with 400 and consume
// no job ID, the standing mesh is never rebuilt, and the next job runs.
func TestHTTPRejectsNegativeBandwidth(t *testing.T) {
	const k = 3
	b, err := NewMeshBackend(k)
	if err != nil {
		t.Fatal(err)
	}
	s := New(b, Options{})
	defer s.Close()
	mux := http.NewServeMux()
	s.RegisterAPI(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	body := `{"algo":"pagerank","n":1000,"bandwidth":-1}`
	resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var msg bytes.Buffer
	msg.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST %s: %d %s, want 400", body, resp.StatusCode, msg.String())
	}

	id, err := s.Submit(Request{Algo: "pagerank", Prob: algo.Problem{N: 120, Seed: 7}})
	if err != nil {
		t.Fatalf("submit after the rejected job: %v", err)
	}
	if id != 1 {
		t.Errorf("the rejected submission consumed a job ID: next job is %d, want 1", id)
	}
	if j := waitState(t, s, id); j.State != StateDone {
		t.Fatalf("job after the rejected one ended %q: %s", j.State, j.Err)
	}
	if st := s.Stats(); st.Rebuilds != 0 || !st.MeshHealth {
		t.Errorf("mesh_rebuilds=%d mesh_healthy=%v after a rejected config, want 0 and true", st.Rebuilds, st.MeshHealth)
	}
}
