package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"condaccess/internal/lab"
	"condaccess/internal/obs"
)

// TestMain lets this test binary double as the cabench executable: farm-mode
// tests run the coordinator in-process, and the worker processes it spawns
// via os.Executable() are this same binary re-entering run() under the env
// marker, exactly like the installed CLI.
func TestMain(m *testing.M) {
	if os.Getenv("CABENCH_TEST_MAIN") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestParseShard(t *testing.T) {
	for _, tc := range []struct {
		in      string
		idx, of int
	}{{"0/2", 0, 2}, {"1/4", 1, 4}, {"7/8", 7, 8}} {
		idx, of, err := parseShard(tc.in)
		if err != nil || idx != tc.idx || of != tc.of {
			t.Errorf("parseShard(%q) = %d, %d, %v; want %d, %d", tc.in, idx, of, err, tc.idx, tc.of)
		}
	}
	for _, in := range []string{"", "2", "2/2", "-1/2", "x/2", "1/x", "1/0", "1/-2"} {
		if _, _, err := parseShard(in); err == nil {
			t.Errorf("parseShard(%q) accepted", in)
		}
	}
}

func TestParseArgsShardAndFarm(t *testing.T) {
	opt, err := parseArgs([]string{"-shard", "1/4", "-store", "d"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if opt.shardIdx != 1 || opt.shardOf != 4 {
		t.Errorf("shard parsed as %d/%d, want 1/4", opt.shardIdx, opt.shardOf)
	}
	opt, err = parseArgs([]string{"-farm", "3", "-store", "d"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if opt.farm != 3 || opt.shardOf != 0 {
		t.Errorf("farm parsed as %d (shardOf %d), want 3 (0)", opt.farm, opt.shardOf)
	}
	for _, args := range [][]string{
		{"-shard", "0/2"},                                  // no store
		{"-farm", "2"},                                     // no store
		{"-farm", "-1", "-store", "d"},                     // negative
		{"-shard", "0/2", "-farm", "2", "-store", "d"},     // both modes
		{"-shard", "0/2", "-store", "d", "-csv", "f.csv"},  // worker renders nothing
		{"-shard", "0/2", "-store", "d", "-trace", "t.js"}, // trace is single-process
		{"-farm", "2", "-store", "d", "-trace", "t.js"},    // trace is single-process
	} {
		if _, err := parseArgs(args, io.Discard); err == nil {
			t.Errorf("args %v accepted, want error", args)
		}
	}
}

// farmArgs is a small sweep used by every multi-process test: 4 points, 2
// trials each, 8 jobs total.
func farmArgs(extra ...string) []string {
	return append([]string{
		"-ds", "list", "-schemes", "ca,rcu", "-threads", "1,2",
		"-updates", "10", "-ops", "120", "-trials", "2", "-seed", "3",
	}, extra...)
}

// TestFarmMatchesSequential pins the farm's acceptance: a farm run's
// stdout is byte-identical to the sequential sweep's, its workers append
// each trial once to the main store (one segment each, no private stores),
// and a warm re-run against that store reports 100% hits with zero
// simulated trials.
func TestFarmMatchesSequential(t *testing.T) {
	t.Setenv("CABENCH_TEST_MAIN", "1") // worker processes re-enter run()
	dir := t.TempDir()

	var seqOut, seqErr strings.Builder
	if code := run(farmArgs("-store", filepath.Join(dir, "seq")), &seqOut, &seqErr); code != 0 {
		t.Fatalf("sequential run failed (%d): %s", code, seqErr.String())
	}

	mainStore := filepath.Join(dir, "main")
	var farmOut, farmErr strings.Builder
	if code := run(farmArgs("-store", mainStore, "-farm", "2"), &farmOut, &farmErr); code != 0 {
		t.Fatalf("farm run failed (%d): %s", code, farmErr.String())
	}
	if farmOut.String() != seqOut.String() {
		t.Errorf("farm stdout differs from sequential:\n--- farm ---\n%s--- seq ---\n%s", farmOut.String(), seqOut.String())
	}
	if !strings.Contains(farmErr.String(), "farm: 2 shards, 8 trials (0 warm)") {
		t.Errorf("farm coordinator line missing:\n%s", farmErr.String())
	}
	if !strings.Contains(farmErr.String(), "store: 8 hits, 0 misses (100% warm)") {
		t.Errorf("farm render was not fully warm:\n%s", farmErr.String())
	}
	if packs, _ := filepath.Glob(filepath.Join(mainStore, "segments", "*.pack")); len(packs) != 2 {
		t.Errorf("main store holds segments %v, want one per worker", packs)
	}
	if _, err := os.Stat(filepath.Join(mainStore, "shards")); !os.IsNotExist(err) {
		t.Errorf("farm left a shards/ directory (stat: %v)", err)
	}

	// The archive lists the coordinator's manifest alone; its rollups name
	// the workers' runs, whose manifests sit under the coordinator's run id.
	runs, err := obs.ListRuns(obs.RunsDir(mainStore))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || len(runs[0].Shards) != 2 {
		t.Fatalf("want one coordinator manifest with 2 shard rollups, got %d manifests: %+v", len(runs), runs)
	}
	for i, r := range runs[0].Shards {
		wm, err := obs.ReadManifest(filepath.Join(obs.RunsDir(mainStore), runs[0].RunID, fmt.Sprintf("shard-%d-of-2.json", i)))
		if err != nil {
			t.Fatal(err)
		}
		if r.Shard != i || r.RunID == "" || r.RunID != wm.RunID || r.Trials != 4 {
			t.Errorf("shard %d rollup %+v, want run %q with 4 trials", i, r, wm.RunID)
		}
	}

	// Warm re-run against the farm's store: zero simulator work.
	var warmOut, warmErr strings.Builder
	if code := run(farmArgs("-store", mainStore), &warmOut, &warmErr); code != 0 {
		t.Fatalf("warm re-run failed (%d): %s", code, warmErr.String())
	}
	if warmOut.String() != seqOut.String() {
		t.Error("warm re-run stdout differs from sequential")
	}
	if !strings.Contains(warmErr.String(), "store: 8 hits, 0 misses (100% warm)") {
		t.Errorf("warm re-run not 100%% warm:\n%s", warmErr.String())
	}
}

// TestShardWorkersAndMerge drives the manual farm workflow in-process: two
// -shard worker runs into private stores, lab.Merge, then a fully warm sweep.
func TestShardWorkersAndMerge(t *testing.T) {
	dir := t.TempDir()
	s0, s1 := filepath.Join(dir, "s0"), filepath.Join(dir, "s1")
	for i, store := range []string{s0, s1} {
		var out, errb strings.Builder
		if code := run(farmArgs("-shard", fmt.Sprintf("%d/2", i), "-store", store), &out, &errb); code != 0 {
			t.Fatalf("shard %d failed (%d): %s", i, code, errb.String())
		}
		if want := fmt.Sprintf("shard %d/2: 4 trials done\n", i); out.String() != want {
			t.Errorf("shard %d stdout = %q, want %q", i, out.String(), want)
		}
	}

	merged := filepath.Join(dir, "merged")
	dst, err := lab.Open(merged)
	if err != nil {
		t.Fatal(err)
	}
	src0, err := lab.OpenExisting(s0)
	if err != nil {
		t.Fatal(err)
	}
	src1, err := lab.OpenExisting(s1)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := lab.Merge(dst, src0, src1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Added != 8 || stats.Skipped != 0 {
		t.Fatalf("merge added %d skipped %d, want 8/0 (shards must not overlap)", stats.Added, stats.Skipped)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}

	var out, errb strings.Builder
	if code := run(farmArgs("-store", merged), &out, &errb); code != 0 {
		t.Fatalf("warm run failed (%d): %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "store: 8 hits, 0 misses (100% warm)") {
		t.Errorf("merged store not fully warm:\n%s", errb.String())
	}
}

// TestFailedSweepKeepsCompletedTrials pins the durability bugfix: a sweep
// that fails partway (unknown scheme on one worker, after earlier
// points completed) must still flush the completed trials on Close, so a
// re-run of the good subset is warm.
func TestFailedSweepKeepsCompletedTrials(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	args := []string{
		"-ds", "list", "-schemes", "ca,bogus", "-threads", "1,2", "-updates", "10",
		"-ops", "120", "-trials", "1", "-seed", "3", "-workers", "1", "-store", store,
	}
	var out, errb strings.Builder
	if code := run(args, &out, &errb); code != 1 {
		t.Fatalf("sweep with unknown scheme exited %d, want 1 (stderr %q)", code, errb.String())
	}
	// The failure path keeps the one-line stderr contract: no stats line.
	if got := errb.String(); strings.Count(got, "\n") != 1 || !strings.HasPrefix(got, "cabench: ") {
		t.Errorf("failure stderr is not exactly one cabench line:\n%s", got)
	}

	// The two ca points (threads 1 and 2) completed before the bogus point
	// failed; Close must have made them durable.
	var wout, werr strings.Builder
	warm := []string{
		"-ds", "list", "-schemes", "ca", "-threads", "1,2", "-updates", "10",
		"-ops", "120", "-trials", "1", "-seed", "3", "-store", store,
	}
	if code := run(warm, &wout, &werr); code != 0 {
		t.Fatalf("warm subset run failed (%d): %s", code, werr.String())
	}
	if !strings.Contains(werr.String(), "store: 2 hits, 0 misses (100% warm)") {
		t.Errorf("completed trials were lost on failure:\n%s", werr.String())
	}
}

// TestFailedFarmKeepsFinishedShards: a farm whose shard 1 fails (an
// unknown scheme) fails naming that shard, while shard 0's finished trial
// is already in the main store, so a plain re-run of the good subset is
// warm.
func TestFailedFarmKeepsFinishedShards(t *testing.T) {
	t.Setenv("CABENCH_TEST_MAIN", "1") // worker processes re-enter run()
	store := filepath.Join(t.TempDir(), "store")
	args := func(schemes string, extra ...string) []string {
		return append([]string{
			"-schemes", schemes, "-threads", "1", "-updates", "10",
			"-ops", "120", "-trials", "1", "-store", store,
		}, extra...)
	}
	var out, errb strings.Builder
	if code := run(args("ca,bogus", "-farm", "2"), &out, &errb); code != 1 {
		t.Fatalf("farm with an unknown scheme exited %d, want 1 (stderr %q)", code, errb.String())
	}
	if got := errb.String(); strings.Count(got, "\n") != 1 || !strings.HasPrefix(got, "cabench: farm: shard 1/2: ") {
		t.Errorf("failure stderr is not one cabench line naming shard 1:\n%s", got)
	}

	var wout, werr strings.Builder
	if code := run(args("ca"), &wout, &werr); code != 0 {
		t.Fatalf("re-run of the good subset failed (%d): %s", code, werr.String())
	}
	if !strings.Contains(werr.String(), "store: 1 hits, 0 misses (100% warm)") {
		t.Errorf("the finished shard's trial is not in the store:\n%s", werr.String())
	}
}

// TestKillMidSweepRecovery SIGKILLs a shard worker once its store has
// durable segment bytes, then asserts the store reopens with the surviving
// records sound (only a truncated tail frame may be reported), merges
// cleanly, and a re-run heals the gap with warm hits for every survivor,
// both against the merged store and against the killed shard's own store,
// which is how a farm whose worker was killed recovers.
func TestKillMidSweepRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills a real worker process")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store := filepath.Join(dir, "shard0")
	// One point, many tiny trials (small key range keeps prefill cheap):
	// enough puts (~1600) to cross the batched writer's flush threshold long
	// before the shard finishes.
	shardArgs := func(dir string) []string {
		return []string{
			"-ds", "list", "-schemes", "ca", "-threads", "1", "-updates", "10",
			"-range", "64", "-ops", "10", "-trials", "1600", "-seed", "3",
			"-workers", "1", "-shard", "0/1", "-store", dir,
		}
	}
	cmd := exec.Command(exe, shardArgs(store)...)
	cmd.Env = append(os.Environ(), "CABENCH_TEST_MAIN=1")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Kill as soon as any segment holds durable bytes.
	segs := filepath.Join(store, "segments")
	deadline := time.Now().Add(30 * time.Second)
	for {
		var durable int64
		if ents, err := os.ReadDir(segs); err == nil {
			for _, e := range ents {
				if strings.HasSuffix(e.Name(), ".pack") {
					if fi, err := e.Info(); err == nil {
						durable += fi.Size()
					}
				}
			}
		}
		if durable > 0 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("no segment bytes appeared within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cmd.Process.Signal(syscall.SIGKILL)
	cmd.Wait() // exit state does not matter; the store on disk does

	// Surviving records verify clean: the only acceptable defect is the
	// truncated tail frame of the in-flight flush, which every reader skips.
	st, err := lab.OpenExisting(store)
	if err != nil {
		t.Fatal(err)
	}
	sound, problems, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		if !strings.Contains(p.Reason, "truncated or checksum-corrupt tail record") {
			t.Errorf("unexpected defect after kill: %s: %s", p.Path, p.Reason)
		}
	}
	keys, err := st.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != sound {
		t.Errorf("Keys() found %d sound entries, Verify %d", len(keys), sound)
	}
	if sound == 0 {
		t.Fatal("kill landed before any record became durable; the poll above should prevent this")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The killed shard merges into a fresh main store like any other.
	merged := filepath.Join(dir, "main")
	dst, err := lab.Open(merged)
	if err != nil {
		t.Fatal(err)
	}
	src, err := lab.OpenExisting(store)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := lab.Merge(dst, src)
	if err != nil {
		t.Fatalf("merging the killed shard: %v", err)
	}
	if stats.Added != sound {
		t.Errorf("merge added %d entries, want every survivor (%d)", stats.Added, sound)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}

	// Re-running the same shard against either store heals the gap: every
	// survivor is a warm hit, only the lost tail is re-simulated.
	want := fmt.Sprintf("store: %d hits, %d misses", sound, 1600-sound)
	for _, dir := range []string{merged, store} {
		var out, errb strings.Builder
		if code := run(shardArgs(dir), &out, &errb); code != 0 {
			t.Fatalf("healing re-run on %s failed (%d): %s", dir, code, errb.String())
		}
		if !strings.Contains(errb.String(), want) {
			t.Errorf("healing run on %s stats = %q, want %q", dir, errb.String(), want)
		}
	}
}
