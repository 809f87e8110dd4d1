package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"kmachine/internal/core"
)

// These tests pin kmnode's surfaces the way a shell script would: run a
// command, and compare everything it printed — exit status, stdout and
// stderr — with an expected-output file, testdata/<name>.golden,
// exactly. Single-process modes run in this process through run;
// multi-process ones (the daemon, an -id cluster, a killed machine)
// re-execute this test binary as kmnode. After an intended change to
// the output, `go test ./cmd/kmnode -update` rewrites the goldens.

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// asMain is the environment switch that makes this test binary kmnode.
const asMain = "KMNODE_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMain) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

var (
	goldenDir, _    = filepath.Abs("testdata")
	inputDir, _     = filepath.Abs("../../testdata")
	serveAddrLine   = regexp.MustCompile(`serving on (\S+)`)
	debugAddrLine   = regexp.MustCompile(`debug server listening addr=(\S+)`)
	lingerLine      = regexp.MustCompile(`(debug server lingering)`)
	traceSpansLine  = regexp.MustCompile(`trace written path=\S+ spans=(\d+)`)
	roundsLine      = regexp.MustCompile(`(?m)^rounds=.*$`)
	wallClockFields = regexp.MustCompile(`(done in |setup |\+ run |p50=|max=|cover |% of )[0-9.µa-z]+`)
	osPickedAddrs   = regexp.MustCompile(`127\.0\.0\.1:[0-9]+`)
	killSuperstep   = regexp.MustCompile(`superstep([= ])[0-9]+`)
	// A survivor learns of machine 0's death from its own read of or
	// write to machine 0's connection, or from the other survivor's
	// abort frame, whichever comes first; each names machine 0.
	killCause = regexp.MustCompile(`err="tcp: (machine [12] (recv from|send to) 0: [^"]+|peer [12] aborted superstep <kill> blaming machine 0)"`)
)

// maskWallClock replaces the fields kmnode reads off the wall clock.
func maskWallClock(s string) string {
	return wallClockFields.ReplaceAllString(s, "${1}<wall>")
}

// mask also replaces the loopback addresses of multi-process and
// debug-plane runs, whose ports the OS or the test picked.
func mask(s string) string {
	return osPickedAddrs.ReplaceAllString(maskWallClock(s), "127.0.0.1:<port>")
}

// transcript renders one kmnode command the way the goldens hold it.
func transcript(cmd string, code int, stdout, stderr string) string {
	return fmt.Sprintf("$ %s\n[exit %d]\n-- stdout --\n%s-- stderr --\n%s", cmd, code, stdout, stderr)
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join(goldenDir, name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Errorf("%s line %d:\n got: %s\nwant: %s", path, i+1, gotLines[i], wantLines[i])
			break
		}
	}
	t.Errorf("transcript differs from %s (%d lines, want %d); got:\n%s", path, len(gotLines), len(wantLines), got)
}

// scripts are the single-process cases. Each runs its commands in
// order in a fresh directory that holds the module's testdata, so
// relative paths print as typed.
var scripts = []struct {
	name string
	cmds []string // "kmnode …" calls run; "ls dir" lists dir
}{
	// Algorithm 1's model line and output hash over sockets.
	{"pagerank", []string{"kmnode -local 4 -algo pagerank -n 2000 -seed 42"}},
	// Arming checkpoints, in memory or on disk, changes no output bit,
	// and a directory keeps the newest two cuts. A shorter run into the
	// same directory leaves its own files, not the first run's
	// higher-numbered ones.
	{"checkpoint", []string{
		"kmnode -local 4 -algo pagerank -n 2000 -seed 42 -checkpoint-every 5",
		"kmnode -local 4 -algo pagerank -n 2000 -seed 42 -checkpoint-every 5 -checkpoint-dir ckpts",
		"ls ckpts",
		"kmnode -local 4 -algo conncomp -n 500 -seed 7 -checkpoint-every 1 -checkpoint-dir ckpts",
		"ls ckpts",
	}},
	// The splitter makes its output directory and one file per machine.
	{"split", []string{
		"kmnode -split-out split -input testdata/sample_edges.txt -n 300 -k 8 -seed 9",
		"ls split",
	}},
	// One process of k can never complete a cut.
	{"id-checkpoint", []string{"kmnode -id 0 -k 2 -listen 127.0.0.1:0 -peers 127.0.0.1:1,127.0.0.1:2 -checkpoint-every 5"}},
	// Values that used to be accepted and mean something else.
	{"negative-superstep-timeout", []string{"kmnode -local 4 -algo pagerank -n 2000 -seed 42 -superstep-timeout -5s"}},
	{"checkpoint-dir-alone", []string{"kmnode -local 4 -algo pagerank -n 2000 -seed 42 -checkpoint-dir ckpts", "ls ."}},
	{"negative-retain-jobs", []string{"kmnode -serve -local 2 -retain-jobs -1"}},
	// Refusals, each one line and before any mesh is built.
	{"refusals", []string{
		"kmnode",
		"kmnode -local 2 -algo bogus",
		"kmnode -local 2 -n 100 -bandwidth -1",
		"kmnode -id 7 -k 4 -listen 127.0.0.1:0 -peers 127.0.0.1:1,127.0.0.1:2,127.0.0.1:3,127.0.0.1:4 -algo conncomp -n 100",
	}},
}

func TestScripts(t *testing.T) {
	for _, s := range scripts {
		t.Run(s.name, func(t *testing.T) {
			t.Chdir(t.TempDir())
			if err := os.Symlink(inputDir, "testdata"); err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, cmd := range s.cmds {
				b.WriteString(sh(t, cmd))
			}
			checkGolden(t, s.name, maskWallClock(b.String()))
		})
	}
}

// sh runs one script command and returns its transcript.
func sh(t *testing.T, cmd string) string {
	args := strings.Fields(cmd)
	if args[0] == "ls" {
		entries, err := os.ReadDir(args[1])
		if err != nil {
			t.Fatal(err)
		}
		out := "$ " + cmd + "\n"
		for _, e := range entries {
			out += e.Name() + "\n"
		}
		return out
	}
	var stdout, stderr output
	code := run(args[1:], &stdout, &stderr)
	return transcript(cmd, code, stdout.String(), stderr.String())
}

// TestTraceAndDebugPlane: a traced run writes a Chrome trace with every
// engine phase, and its debug server answers /debug/vars with the
// run's own span count while it lingers, then closes when run returns.
// Two runs in one process: each debug plane reads its own trace.
func TestTraceAndDebugPlane(t *testing.T) {
	t.Chdir(t.TempDir())
	var b strings.Builder
	for _, cmd := range []string{
		"kmnode -local 4 -algo pagerank -n 500 -seed 3 -trace trace.json -debug-addr 127.0.0.1:0 -debug-linger 1s",
		"kmnode -local 4 -algo conncomp -n 500 -seed 4 -trace trace.json -debug-addr 127.0.0.1:0 -debug-linger 1s",
	} {
		var stdout, stderr output
		code := make(chan int, 1)
		go func() { code <- run(strings.Fields(cmd)[1:], &stdout, &stderr) }()
		addr := stderr.await(t, debugAddrLine, time.Minute)
		stderr.await(t, lingerLine, time.Minute)
		var vars map[string]json.RawMessage
		getJSON(t, "http://"+addr+"/debug/vars", &vars)
		spans := stderr.await(t, traceSpansLine, 0)
		if got := string(vars["kmachine.trace.spans"]); got != spans {
			t.Errorf("%s: /debug/vars kmachine.trace.spans = %q, want the %s spans written", cmd, got, spans)
		}
		b.WriteString(transcript(cmd, <-code, stdout.String(), stderr.String()))
		if _, err := http.Get("http://" + addr + "/debug/vars"); err == nil {
			t.Errorf("%s: debug server still answers after run returned", cmd)
		}
		checkTrace(t, "trace.json")
	}
	checkGolden(t, "trace", mask(b.String()))
}

// checkTrace reads a Chrome trace and requires over 100 complete events
// covering the engine's three phases.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct{ Name, Ph string }
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	complete, phases := 0, map[string]bool{}
	for _, e := range events {
		if e.Ph == "X" {
			complete++
			phases[e.Name] = true
		}
	}
	if complete <= 100 || !phases["compute"] || !phases["barrier"] || !phases["exchange"] {
		t.Errorf("%s: %d complete events over phases %v, want > 100 covering compute, barrier and exchange", path, complete, phases)
	}
}

// TestServe drives the job daemon as a client would: impossible
// problems bounce with 400 and use no job ID, two jobs finish with the
// single-run goldens' output hashes, a drained daemon answers 503, and
// SIGTERM ends it with exit 0.
func TestServe(t *testing.T) {
	d := start(t, t.TempDir(), "-serve", "-local", "4", "-debug-addr", "127.0.0.1:0")
	base := "http://" + d.stdout.await(t, serveAddrLine, time.Minute)
	var b strings.Builder
	post := func(path, body string) {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		reply, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "> POST %s %s\n< %d %s", path, body, resp.StatusCode, reply)
	}
	post("/api/v1/jobs", `{"algo":"conncomp","n":1000,"edge_p":2}`)
	post("/api/v1/jobs", `{"algo":"pagerank","n":100,"top":-1}`)
	post("/api/v1/jobs", `{"algo":"pagerank","n":2000,"seed":42}`)
	post("/api/v1/jobs", `{"algo":"conncomp","n":1000,"seed":7}`)
	for _, id := range []int{1, 2} {
		path := fmt.Sprintf("/api/v1/jobs/%d", id)
		var j map[string]any
		for deadline := time.Now().Add(time.Minute); j["state"] != "done" && time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
			getJSON(t, base+path, &j)
		}
		for _, wall := range []string{"submitted", "started", "finished", "latency_ms"} {
			j[wall] = "<wall>"
		}
		if res, ok := j["result"].(map[string]any); ok {
			res["setup_ms"], res["exec_ms"] = "<wall>", "<wall>"
		}
		fmt.Fprintf(&b, "> GET %s\n< ", path)
		enc := json.NewEncoder(&b)
		enc.SetEscapeHTML(false)
		enc.Encode(j)
	}
	post("/api/v1/drain", "")
	post("/api/v1/jobs", `{"algo":"pagerank","n":10}`)
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	d.wait(t, time.Minute)
	checkGolden(t, "serve", mask(b.String()+d.transcript()))
}

// TestTwoProcessCluster: one OS process per machine, meshed over
// loopback by a shared -peers list. Both print the model line -local 2
// prints, and machine 0 — traced through the problem's run
// configuration alone — sees every phase.
func TestTwoProcessCluster(t *testing.T) {
	dir, peers := t.TempDir(), loopbackAddrs(t, 2)
	flags := "-k 2 -peers " + strings.Join(peers, ",") + " -algo pagerank -n 2000 -seed 42"
	nodes := []*proc{
		start(t, dir, strings.Fields("-id 0 -listen "+peers[0]+" -trace node0.json "+flags)...),
		start(t, dir, strings.Fields("-id 1 -listen "+peers[1]+" "+flags)...),
	}
	var local output
	if code := run(strings.Fields("-local 2 -algo pagerank -n 2000 -seed 42"), &local, &output{}); code != 0 {
		t.Fatalf("-local 2 exited %d", code)
	}
	want := roundsLine.FindString(local.String())
	var b strings.Builder
	for i, n := range nodes {
		n.wait(t, time.Minute)
		if got := roundsLine.FindString(n.stdout.String()); got != want || want == "" {
			t.Errorf("machine %d: %q, want -local 2's %q", i, got, want)
		}
		b.WriteString(n.transcript())
	}
	checkGolden(t, "cluster", mask(b.String()))
	checkTrace(t, filepath.Join(dir, "node0.json"))
}

// TestKillMachine0: every node rules each superstep itself, so machine
// 0 is only a peer. Killed with SIGKILL once it is past superstep 0, it
// must fail both survivors through their data links — non-zero exit
// within 15 s, the failure attributed to machine 0 — and strand
// neither waiting on a coordinator.
func TestKillMachine0(t *testing.T) {
	dir, peers := t.TempDir(), loopbackAddrs(t, 3)
	machine := func(id int, extra string) *proc {
		return start(t, dir, strings.Fields(fmt.Sprintf("-id %d -k 3 -listen %s -peers %s -algo pagerank -n 200000 -seed 1 -superstep-timeout 5s%s",
			id, peers[id], strings.Join(peers, ","), extra))...)
	}
	m0 := machine(0, " -debug-addr 127.0.0.1:0")
	survivors := []*proc{machine(1, ""), machine(2, "")}
	debug := "http://" + m0.stderr.await(t, debugAddrLine, time.Minute) + "/debug/vars"
	for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(10 * time.Millisecond) {
		var vars struct {
			Superstep int `json:"kmachine.superstep.current"`
		}
		getJSON(t, debug, &vars)
		if vars.Superstep >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("machine 0 never reached superstep 1; stderr:\n%s", m0.stderr.String())
		}
	}
	if err := m0.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	killed := time.Now()
	var b strings.Builder
	for _, s := range survivors {
		if code := s.wait(t, 15*time.Second-time.Since(killed)); code == 0 {
			t.Errorf("kmnode %s exited 0 after machine 0 died", strings.Join(s.args, " "))
		}
		b.WriteString(s.transcript())
	}
	got := killSuperstep.ReplaceAllString(mask(b.String()), "superstep$1<kill>")
	checkGolden(t, "kill", killCause.ReplaceAllString(got, "err=<machine 0 died>"))
}

// resumable is a checkpointed pagerank run of the pagerank golden: on a
// directory that holds its cuts it resumes from the newest one.
const resumable = "-local 4 -algo pagerank -n 2000 -seed 42 -checkpoint-every 5 -checkpoint-dir d"

// TestRestartResumesFromTheNewestCut: running the same checkpointed
// command again resumes it from the newest cut in its directory, the
// one after superstep 69, with the model line and output hash of the
// pagerank golden.
func TestRestartResumesFromTheNewestCut(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, from := range []int{0, 70} {
		var stdout, stderr output
		if code := run(strings.Fields(resumable+" -trace t.json"), &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d:\n%s", code, stderr.String())
		}
		checkResumed(t, stdout.String(), "t.json", from)
	}
}

// TestRestartAfterKillResumes: kmnode killed with SIGKILL past
// superstep 20 of its 72 leaves its cuts in -checkpoint-dir (the newest
// at 14 or later: a machine may be past the superstep whose cut is not
// complete yet), and the same command run again resumes from the
// newest: the pagerank golden's model line and hash, and a trace that
// starts right after that cut. The unkilled run takes ~0.05 s, so a run
// that finishes before the kill lands, or before the debug plane is
// seen past superstep 20, is started again.
func TestRestartAfterKillResumes(t *testing.T) {
	dir := t.TempDir()
	for attempt := 0; ; attempt++ {
		if attempt == 5 {
			t.Fatal("kmnode finished before it could be killed past superstep 20, five times")
		}
		if err := os.RemoveAll(filepath.Join(dir, "d")); err != nil {
			t.Fatal(err)
		}
		p := start(t, dir, strings.Fields(resumable+" -debug-addr 127.0.0.1:0")...)
		debug := "http://" + p.stderr.await(t, debugAddrLine, time.Minute) + "/debug/vars"
		finished := false
		for deadline := time.Now().Add(time.Minute); !finished && superstep(debug) < 20; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("kmnode never reached superstep 20; stderr:\n%s", p.stderr.String())
			}
			select {
			case <-p.done:
				finished = true
			default:
			}
		}
		if finished {
			continue
		}
		if err := p.cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		if p.wait(t, time.Minute) == -1 { // killed, not finished
			break
		}
	}
	from, _, err := core.NewFileSink(filepath.Join(dir, "d")).Latest()
	if err != nil || from < 0 {
		t.Fatalf("killed run left no cut (err %v)", err)
	}
	t.Logf("killed past superstep 20 with the newest cut at %d", from)
	rerun := start(t, dir, strings.Fields(resumable+" -trace t.json")...)
	if code := rerun.wait(t, time.Minute); code != 0 {
		t.Fatalf("rerun exited %d", code)
	}
	checkResumed(t, rerun.stdout.String(), filepath.Join(dir, "t.json"), from+1)
}

// superstep is the debug plane's current superstep, or -1 while it
// does not answer.
func superstep(url string) int {
	var vars struct {
		Superstep int `json:"kmachine.superstep.current"`
	}
	resp, err := http.Get(url)
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	if json.NewDecoder(resp.Body).Decode(&vars) != nil {
		return -1
	}
	return vars.Superstep
}

// checkResumed requires the pagerank golden's model line and output
// hash in stdout, and a trace whose first compute span is at superstep
// from.
func checkResumed(t *testing.T, stdout, tracePath string, from int) {
	t.Helper()
	const want = "rounds=2058 supersteps=72 messages=119454 words=238908 maxRecvWords=60452"
	if got := roundsLine.FindString(stdout); got != want || !strings.Contains(stdout, "output hash 12e9858854108c92\n") {
		t.Errorf("run from superstep %d printed %q and\n%s\nwant %q and output hash 12e9858854108c92", from, got, stdout, want)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string
		Args struct{ Superstep int }
	}
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("%s: %v", tracePath, err)
	}
	first := -1
	for _, e := range events {
		if e.Name == "compute" && (first < 0 || e.Args.Superstep < first) {
			first = e.Args.Superstep
		}
	}
	if first != from {
		t.Errorf("trace's first compute span is at superstep %d, want %d", first, from)
	}
}

// output is a stream as far as it has been written.
type output struct {
	mu sync.Mutex
	b  strings.Builder
}

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.b.Write(p)
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.b.String()
}

// await waits up to d for re to match and returns its first group.
func (o *output) await(t *testing.T, re *regexp.Regexp, d time.Duration) string {
	t.Helper()
	for deadline := time.Now().Add(d); ; time.Sleep(10 * time.Millisecond) {
		if m := re.FindStringSubmatch(o.String()); m != nil {
			return m[1]
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %q after %v in:\n%s", re, d, o.String())
		}
	}
}

// proc is kmnode as a process of its own: this test binary, re-executed
// with asMain set, as the benchmark's matrix mode re-executes itself.
type proc struct {
	args           []string
	cmd            *exec.Cmd
	stdout, stderr output
	done           chan struct{} // closed once the process is reaped
}

func start(t *testing.T, dir string, args ...string) *proc {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	p := &proc{args: args, cmd: exec.Command(self, args...), done: make(chan struct{})}
	p.cmd.Dir, p.cmd.Env = dir, append(os.Environ(), asMain+"=1")
	p.cmd.Stdout, p.cmd.Stderr = &p.stdout, &p.stderr
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		p.cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		<-p.done
		if t.Failed() {
			t.Logf("kmnode %s wrote to stderr:\n%s", strings.Join(args, " "), p.stderr.String())
		}
	})
	return p
}

// wait returns the exit status, failing the test if the process is
// still running after d.
func (p *proc) wait(t *testing.T, d time.Duration) int {
	t.Helper()
	select {
	case <-p.done:
		return p.cmd.ProcessState.ExitCode()
	case <-time.After(d):
		t.Fatalf("kmnode %s still running after %v; stderr:\n%s", strings.Join(p.args, " "), d, p.stderr.String())
		return 0
	}
}

func (p *proc) transcript() string {
	return transcript("kmnode "+strings.Join(p.args, " "), p.cmd.ProcessState.ExitCode(), p.stdout.String(), p.stderr.String())
}

// loopbackAddrs returns n loopback addresses the OS just had free.
func loopbackAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}
