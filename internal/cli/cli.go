// Package cli is the scaffold every command under cmd/ runs on: the exit
// contract, the shared flag block and profiler, the run session around the
// observability recorder, the result-store lifecycle and checked output
// files, written once.
//
// The exit contract: -h exits 0; a command-line error exits 2 after one
// "tool: ..." line on stderr (or after the flag package's own report);
// -version prints one line on stdout and exits 0; a runtime error exits 1
// after one "tool: ..." line. A failing run prints nothing else on stderr.
package cli

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strings"

	"condaccess/internal/bench"
	"condaccess/internal/lab"
	"condaccess/internal/obs"
)

// Reported marks an error the flag package has already printed to stderr
// (with usage), so Run must not print it a second time.
type Reported struct{ Err error }

func (e Reported) Error() string { return e.Err.Error() }
func (e Reported) Unwrap() error { return e.Err }

// NewFlagSet returns a flag set that reports its errors to stderr and
// returns them instead of exiting, as Run's contract needs.
func NewFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// Parse parses args into fs, marking a failure Reported: the flag package
// has printed it already.
func Parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return Reported{err}
	}
	return nil
}

// Flags is the flag block every command shares: -version, the recorder's
// outputs (-progress, -manifest, -events) and the profiles.
type Flags struct {
	Version  bool
	Progress bool
	Manifest string
	Events   string
	Prof     Profiler
}

// Register installs the shared flag block on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.BoolVar(&f.Version, "version", false, "print tool, module version, and engine tag, then exit")
	fs.BoolVar(&f.Progress, "progress", false, "render live run progress (trials done, rate, ETA, warm %) on stderr")
	fs.StringVar(&f.Manifest, "manifest", "", "write the run manifest JSON to this path (default with -store: <store>/runs/<runid>.json)")
	fs.StringVar(&f.Events, "events", "", "append JSONL run events (run/point/trials/store_flush) to this file")
	f.Prof.Register(fs)
}

// VersionLine renders the -version output every command prints: tool,
// module path and version, and the engine tag that scopes store keys and
// goldens.
func VersionLine(tool, engineTag string) string {
	path := "condaccess"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Path != "" {
		path = bi.Main.Path
	}
	return fmt.Sprintf("%s %s %s engine %s", tool, path, obs.Version(), engineTag)
}

// Spec is one parsed invocation: what Run needs beyond the parser's error.
type Spec struct {
	// Flags is the parsed shared flag block.
	Flags Flags
	// Config, StoreDir, TraceOut and Timeline go into the run manifest:
	// the run's full configuration, the store root ("" if none; a store
	// defaults the manifest into its runs/ directory), the -trace output
	// path, and whether windowed timelines were recorded.
	Config   any
	StoreDir string
	TraceOut string
	Timeline bool
	// Body is the command proper. rec may be nil; its methods are nil-safe.
	Body func(rec *obs.Rec) error
}

// Run executes one invocation of tool under the exit contract and returns
// the exit code. parseErr is the parser's result: flag.ErrHelp exits 0,
// any other error is a command-line error. A session teardown failure
// (manifest write, event log, profile flush) surfaces only when the body
// succeeded.
func Run(tool string, args []string, stdout, stderr io.Writer, parseErr error, spec Spec) int {
	if parseErr != nil {
		if errors.Is(parseErr, flag.ErrHelp) {
			return 0
		}
		if !errors.As(parseErr, new(Reported)) {
			fmt.Fprintln(stderr, tool+":", parseErr)
		}
		return 2
	}
	if spec.Flags.Version {
		fmt.Fprintln(stdout, VersionLine(tool, bench.EngineTag()))
		return 0
	}
	if err := spec.session(tool, args, stderr); err != nil {
		fmt.Fprintln(stderr, tool+":", err)
		return 1
	}
	return 0
}

// session runs the body with the profiles started and, when some output
// wants one (-progress, -manifest, -events, or a store to default the
// manifest into), a live recorder. Teardown runs on every path, in order:
// the recorder's Close (manifest and run_done), the event log's flush and
// close, the profiles' stop. The body's error wins, then the first
// teardown error.
func (s *Spec) session(tool string, args []string, stderr io.Writer) (err error) {
	f := &s.Flags
	if err = f.Prof.Start(); err != nil {
		return err
	}
	defer func() {
		if perr := f.Prof.Stop(); err == nil {
			err = perr
		}
	}()
	cfg := obs.Config{
		Tool: tool, Args: args, EngineTag: bench.EngineTag(), Spec: s.Config,
		ManifestPath: f.Manifest, TraceOut: s.TraceOut, Timeline: s.Timeline,
	}
	if f.Manifest == "" && s.StoreDir != "" {
		cfg.ManifestDir = obs.RunsDir(s.StoreDir)
	}
	if f.Progress {
		cfg.Progress = stderr
	}
	if f.Events != "" {
		// Buffer the JSONL stream: events are small and frequent, and the
		// recorder writes them from the run's hot path. The deferred Close
		// flushes them before the file closes, on the failure path too;
		// ev and oerr, not err, so that it sees the named result.
		ev, oerr := openFile(f.Events, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if oerr != nil {
			return oerr
		}
		defer Close(ev, &err)
		cfg.Events = ev
	}
	var rec *obs.Rec
	if cfg.Progress != nil || cfg.Events != nil || cfg.ManifestPath != "" || cfg.ManifestDir != "" {
		rec = obs.New(cfg)
	}
	err = s.Body(rec)
	if cerr := rec.Close(err); err == nil {
		err = cerr
	}
	return err
}

// WithStore runs body against the result store at dir, or against an
// untyped nil TrialStore when dir is "" (a typed nil *lab.Store would look
// like a store to the runner). The store reports its flushes to rec. Close
// always runs, so a failed body keeps the batched writes of the trials
// that did complete; the first error wins, and the store's traffic line
// goes to stderr only on success, keeping the one-line failure contract.
func WithStore(dir string, rec *obs.Rec, stderr io.Writer, body func(bench.TrialStore) error) (err error) {
	if dir == "" {
		return body(nil)
	}
	st, err := lab.Open(dir)
	if err != nil {
		return err
	}
	st.OnFlush = rec.StoreFlushed
	defer func() {
		Close(st, &err)
		rec.SetStore(st.Stats().Rollup())
		if err == nil {
			fmt.Fprintln(stderr, st.Stats())
		}
	}()
	return body(st)
}

// Close closes c and keeps the first error: *err takes Close's error only
// when it holds none. Deferred with a named result, it checks the Close of
// a store or an output file on every path.
func Close(c io.Closer, err *error) {
	if cerr := c.Close(); *err == nil {
		*err = cerr
	}
}

// File is an output file written through a buffer. The buffer keeps the
// first write error and drops every later write, so renderers may ignore
// the errors of single writes: Close reports the first failure among the
// writes, the flush and the file's own close.
type File struct {
	*bufio.Writer
	f *os.File
}

// Create creates or truncates the output file at path.
func Create(path string) (*File, error) {
	return openFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o666)
}

// openFile opens the output file at path with os.OpenFile's flags and
// permissions.
func openFile(path string, oflag int, perm os.FileMode) (*File, error) {
	f, err := os.OpenFile(path, oflag, perm)
	if err != nil {
		return nil, err
	}
	return &File{bufio.NewWriter(f), f}, nil
}

// Close flushes the buffer and closes the file.
func (f *File) Close() error {
	err := f.Flush()
	if cerr := f.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// SplitList splits a comma-separated flag value, trimming spaces and
// dropping empty items.
func SplitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// KeyRange returns keys, or when it is 0 the paper's key range for ds:
// 10K keys for the external BST, 1K for every other structure.
func KeyRange(ds string, keys uint64) uint64 {
	switch {
	case keys != 0:
		return keys
	case ds == "bst":
		return 10000
	}
	return 1000
}
