package checkpoint

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/models"
)

func frontsEqual(a, b []*core.Implementation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Cost != b[i].Cost || a[i].Flexibility != b[i].Flexibility ||
			!a[i].Allocation.Equal(b[i].Allocation) {
			return false
		}
	}
	return true
}

// interruptedResult runs Explore with an injected cancellation at
// candidate k and returns the partial result.
func interruptedResult(t *testing.T, k int) *core.Result {
	t.Helper()
	s := models.SetTopBox()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := core.Options{Fault: faultinject.New().CancelAt(core.SiteEstimate, k).Bind(cancel)}
	r := core.ExploreContext(ctx, s, opts)
	if !r.Interrupted || r.Cursor != k {
		t.Fatalf("interrupt failed: interrupted=%v cursor=%d", r.Interrupted, r.Cursor)
	}
	return r
}

func TestSaveLoadResumeRoundtrip(t *testing.T) {
	s := models.SetTopBox()
	full := core.Explore(s, core.Options{})
	part := interruptedResult(t, full.Stats.PossibleAllocations/2)

	snap, err := FromResult(s, core.Options{}, part)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := (&Writer{Path: path}).Save(snap); err != nil {
		t.Fatal(err)
	}

	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, snap) {
		t.Fatalf("snapshot changed across save/load:\n%+v\n%+v", loaded, snap)
	}
	res, err := loaded.Resume(s, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cursor != part.Cursor || !frontsEqual(res.Front, part.Front) {
		t.Fatalf("resume state diverges from the interrupted result")
	}

	resumed := core.Explore(s, core.Options{Resume: res})
	if !frontsEqual(resumed.Front, full.Front) {
		t.Errorf("resumed-from-disk front differs from uninterrupted run")
	}
	// Compare through Semantic(): the resumed run restarts with a cold
	// evaluation cache, so solver-effort and cache counters may differ
	// while the semantic counters continue exactly.
	if !reflect.DeepEqual(resumed.Stats.Semantic(), full.Stats.Semantic()) {
		t.Errorf("resumed stats %+v\n  differ from uninterrupted %+v", resumed.Stats, full.Stats)
	}
}

func TestResumeRefusesSpecMismatch(t *testing.T) {
	settop := models.SetTopBox()
	part := interruptedResult(t, 50)
	snap, err := FromResult(settop, core.Options{}, part)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Resume(models.Decoder(), core.Options{}); err == nil ||
		!strings.Contains(err.Error(), "spec digest mismatch") {
		t.Fatalf("want spec digest refusal, got %v", err)
	}
}

func TestResumeRefusesOptionsMismatch(t *testing.T) {
	s := models.SetTopBox()
	part := interruptedResult(t, 50)
	snap, err := FromResult(s, core.Options{}, part)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Resume(s, core.Options{Weighted: true}); err == nil ||
		!strings.Contains(err.Error(), "options digest mismatch") {
		t.Fatalf("want options digest refusal, got %v", err)
	}
}

func TestOptionsDigestIgnoresRuntimeHooks(t *testing.T) {
	base := OptionsDigest(core.Options{})
	hooked := OptionsDigest(core.Options{
		Fault:         faultinject.New(),
		Progress:      func(core.Progress) {},
		ProgressEvery: 3,
		Resume:        &core.Resume{Cursor: 9},
	})
	if base != hooked {
		t.Fatal("runtime hooks leaked into the options digest")
	}
	if base == OptionsDigest(core.Options{MaxScan: 10}) {
		t.Fatal("scan-shaping option not in the digest")
	}
}

// TestOptionsDigestIgnoresCacheSwitch: -cache is a runtime/ablation
// switch with no semantic effect, so flipping it must not invalidate an
// existing checkpoint.
func TestOptionsDigestIgnoresCacheSwitch(t *testing.T) {
	if OptionsDigest(core.Options{}) != OptionsDigest(core.Options{DisableCache: true}) {
		t.Fatal("DisableCache leaked into the options digest")
	}
}

// TestResumeAcrossCacheModes: a snapshot taken by a cached run resumes
// under -cache=off (and vice versa) and still converges to the
// uninterrupted front.
func TestResumeAcrossCacheModes(t *testing.T) {
	s := models.SetTopBox()
	full := core.Explore(s, core.Options{})
	part := interruptedResult(t, 800)
	snap, err := FromResult(s, core.Options{}, part)
	if err != nil {
		t.Fatal(err)
	}
	for _, disable := range []bool{false, true} {
		opts := core.Options{DisableCache: disable}
		res, err := snap.Resume(s, opts)
		if err != nil {
			t.Fatalf("DisableCache=%v broke resume: %v", disable, err)
		}
		opts.Resume = res
		resumed := core.Explore(s, opts)
		if !frontsEqual(resumed.Front, full.Front) {
			t.Errorf("DisableCache=%v: resumed front differs from uninterrupted run", disable)
		}
	}
}

func TestLoadRefusesVersionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := os.WriteFile(path, []byte(`{"version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("want version refusal, got %v", err)
	}
}

func TestLoadRejectsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := os.WriteFile(path, []byte(`{"version": 1,`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("corrupt snapshot loaded")
	}
}

func TestResumeRefusesTamperedFront(t *testing.T) {
	s := models.SetTopBox()
	part := interruptedResult(t, 200)
	if len(part.Front) == 0 {
		t.Fatal("need a non-empty partial front")
	}
	snap, err := FromResult(s, core.Options{}, part)
	if err != nil {
		t.Fatal(err)
	}
	snap.Front[0].Flexibility += 1 // bit-rot the recorded objective
	if _, err := snap.Resume(s, core.Options{}); err == nil ||
		!strings.Contains(err.Error(), "refusing to resume") {
		t.Fatalf("want reconstruction refusal, got %v", err)
	}
}

// TestSaveAtomicUnderCrash: a crash (injected panic) between the temp
// write and the rename must leave the previously saved snapshot intact
// and loadable.
func TestSaveAtomicUnderCrash(t *testing.T) {
	s := models.SetTopBox()
	first, err := FromResult(s, core.Options{}, interruptedResult(t, 50))
	if err != nil {
		t.Fatal(err)
	}
	second, err := FromResult(s, core.Options{}, interruptedResult(t, 100))
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "ck.json")
	w := &Writer{Path: path, Fault: faultinject.New().PanicAt(SiteRename, 1, "crash before rename")}
	if err := w.Save(first); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("second save did not crash")
			}
		}()
		w.Save(second)
	}()

	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Cursor != first.Cursor {
		t.Fatalf("crash corrupted the snapshot: cursor %d, want %d", loaded.Cursor, first.Cursor)
	}
}

func TestSaveWriteErrorInjected(t *testing.T) {
	w := &Writer{
		Path:  filepath.Join(t.TempDir(), "ck.json"),
		Fault: faultinject.New().ErrorAt(SiteWrite, 0, nil),
	}
	if err := w.Save(&Snapshot{Version: Version}); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("want injected write error, got %v", err)
	}
	if _, err := os.Stat(w.Path); !os.IsNotExist(err) {
		t.Fatal("failed save left a file behind")
	}
}

func TestSaveRenameErrorCleansTemp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	w := &Writer{Path: path, Fault: faultinject.New().ErrorAt(SiteRename, 0, nil)}
	if err := w.Save(&Snapshot{Version: Version}); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("want injected rename error, got %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file not cleaned up after rename failure")
	}
}

// TestCrashResumeMatchesUninterrupted is the acceptance scenario: a run
// checkpointing periodically via the Progress hook is killed by an
// injected panic mid-scan; the last snapshot on disk is loaded, resumed,
// and the final front and counters match the never-interrupted run.
func TestCrashResumeMatchesUninterrupted(t *testing.T) {
	s := models.SetTopBox()
	full := core.Explore(s, core.Options{})

	path := filepath.Join(t.TempDir(), "ck.json")
	w := &Writer{Path: path}
	opts := core.Options{
		ProgressEvery: 50,
		Fault:         faultinject.New().PanicAt(core.SiteEstimate, 500, "simulated crash"),
	}
	opts.Progress = func(p core.Progress) {
		snap, err := Capture(s, opts, p)
		if err != nil {
			t.Errorf("capture: %v", err)
			return
		}
		if err := w.Save(snap); err != nil {
			t.Errorf("save: %v", err)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the injected crash did not fire")
			}
		}()
		core.Explore(s, opts)
	}()

	snap, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Cursor <= 0 || snap.Cursor > 500 {
		t.Fatalf("snapshot cursor %d outside the pre-crash window", snap.Cursor)
	}
	res, err := snap.Resume(s, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resumed := core.Explore(s, core.Options{Resume: res})
	if !frontsEqual(resumed.Front, full.Front) {
		t.Errorf("crash+resume front differs from uninterrupted run")
	}
	if resumed.Stats.PossibleAllocations != full.Stats.PossibleAllocations ||
		resumed.Stats.Feasible != full.Stats.Feasible {
		t.Errorf("crash+resume counters diverge: %+v vs %+v", resumed.Stats, full.Stats)
	}
}

// TestDeadlineResumeMatchesUninterrupted covers the deadline
// interruption mode: an exhaustive-options scan (about a second on this
// model) is cut off by a short context deadline, snapshotted, and
// resumed to the uninterrupted front.
func TestDeadlineResumeMatchesUninterrupted(t *testing.T) {
	s := models.SetTopBox()
	opts := core.Options{DisableFlexBound: true, IncludeUselessComm: true}
	full := core.ExploreContext(context.Background(), s, opts)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	part := core.ExploreContext(ctx, s, opts)
	if !part.Interrupted {
		t.Skip("scan completed before the deadline on this machine")
	}
	if part.Reason != core.ReasonDeadline {
		t.Fatalf("reason=%q, want deadline", part.Reason)
	}

	snap, err := FromResult(s, opts, part)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := (&Writer{Path: path}).Save(snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := loaded.Resume(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Resume = res
	resumed := core.ExploreContext(context.Background(), s, opts)
	if !frontsEqual(resumed.Front, full.Front) {
		t.Errorf("deadline+resume front differs from uninterrupted run")
	}
}

func TestSpecDigestStableAndDiscriminating(t *testing.T) {
	a, err := SpecDigest(models.SetTopBox())
	if err != nil {
		t.Fatal(err)
	}
	b, err := SpecDigest(models.SetTopBox())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("digest of identical specs differs — encoding is not canonical")
	}
	c, err := SpecDigest(models.Decoder())
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different specs collide")
	}
	if !strings.HasPrefix(a, "sha256:") {
		t.Fatalf("digest %q lacks scheme prefix", a)
	}
}

// TestPipelineCheckpointCrossModeResume: a checkpoint written from a
// Progress emission of the *pipelined* explorer loads, validates
// (digest compatibility is unaffected by worker count — workers and
// queue depth are call arguments, not digested options), and resumes to
// the uninterrupted front under either explorer. Snapshots are
// interchangeable between -workers=1 and -workers=N runs.
func TestPipelineCheckpointCrossModeResume(t *testing.T) {
	s := models.SetTopBox()
	full := core.Explore(s, core.Options{})

	path := filepath.Join(t.TempDir(), "ck.json")
	w := &Writer{Path: path}
	opts := core.Options{ProgressEvery: 16}
	saved := false
	opts.Progress = func(p core.Progress) {
		if saved || p.Cursor >= full.Cursor {
			return
		}
		snap, err := Capture(s, opts, p)
		if err != nil {
			t.Errorf("capture: %v", err)
			return
		}
		if err := w.Save(snap); err != nil {
			t.Errorf("save: %v", err)
			return
		}
		saved = true
	}
	core.ExploreParallel(s, opts, 4, 8)
	if !saved {
		t.Fatal("no mid-pipeline checkpoint written")
	}

	snap, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Stats.Pipeline.Workers != 4 {
		t.Errorf("snapshot lost the pipeline shape: %+v", snap.Stats.Pipeline)
	}
	res, err := snap.Resume(s, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if seq := core.Explore(s, core.Options{Resume: res}); !frontsEqual(seq.Front, full.Front) {
		t.Errorf("sequential resume of a pipeline checkpoint diverges from the full run")
	}
	if par := core.ExploreParallel(s, core.Options{Resume: res}, 2, 4); !frontsEqual(par.Front, full.Front) {
		t.Errorf("pipelined resume of a pipeline checkpoint diverges from the full run")
	}
}

// TestOptionsDigestIgnoresBatch: -batch only sizes the parallel
// explorer's range jobs; the ordered commit makes results
// batch-size-invariant, so flipping it must not invalidate an existing
// checkpoint.
func TestOptionsDigestIgnoresBatch(t *testing.T) {
	base := OptionsDigest(core.Options{})
	for _, b := range []int{1, 4, 64} {
		if OptionsDigest(core.Options{Batch: b}) != base {
			t.Fatalf("Batch=%d leaked into the options digest", b)
		}
	}
}

// TestResumeAcrossBatchSizes: a checkpoint written mid-scan — at a
// cursor that is deliberately NOT a multiple of the resuming batch
// size, so the resumed run re-chunks the candidate stream on different
// boundaries — resumes under any batch size (and sequentially) and
// still converges to the uninterrupted front.
func TestResumeAcrossBatchSizes(t *testing.T) {
	s := models.SetTopBox()
	full := core.Explore(s, core.Options{})

	// Snapshot from a parallel run under Batch=4 at the first progress
	// emission past cursor 100: with ProgressEvery=1 the parallel
	// explorer emits at every batch commit, so a cursor of the form
	// 4k+2 (mod 64 != 0) exists in the emission stream.
	var snap *Snapshot
	opts := core.Options{ProgressEvery: 1, Batch: 4}
	opts.Progress = func(p core.Progress) {
		if snap != nil || p.Cursor < 100 || p.Cursor >= full.Cursor {
			return
		}
		sn, err := Capture(s, opts, p)
		if err != nil {
			t.Errorf("capture: %v", err)
			return
		}
		snap = sn
	}
	core.ExploreParallel(s, opts, 4, 8)
	if snap == nil {
		t.Fatal("no mid-scan checkpoint captured")
	}
	if snap.Cursor%64 == 0 {
		t.Fatalf("cursor %d is a batch-64 boundary; the test wants a mid-batch resume point", snap.Cursor)
	}

	for _, batch := range []int{0, 1, 64} {
		res, err := snap.Resume(s, core.Options{Batch: batch})
		if err != nil {
			t.Fatalf("Batch=%d refused the snapshot: %v", batch, err)
		}
		par := core.ExploreParallel(s, core.Options{Resume: res, Batch: batch}, 4, 8)
		if !frontsEqual(par.Front, full.Front) {
			t.Errorf("Batch=%d: resumed front diverges from the uninterrupted run", batch)
		}
		if par.Cursor != full.Cursor {
			t.Errorf("Batch=%d: resumed cursor %d, want %d", batch, par.Cursor, full.Cursor)
		}
	}
	res, err := snap.Resume(s, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if seq := core.Explore(s, core.Options{Resume: res}); !frontsEqual(seq.Front, full.Front) {
		t.Errorf("sequential resume of a batched checkpoint diverges from the full run")
	}
}

// TestOptionsDigestIgnoresEnumerator (acceptance): the enumerator is a
// performance knob — both producers emit the bit-identical candidate
// stream — so choosing it must not invalidate an existing checkpoint.
func TestOptionsDigestIgnoresEnumerator(t *testing.T) {
	base := OptionsDigest(core.Options{})
	for _, e := range []core.Enumerator{core.EnumeratorBitset, core.EnumeratorSymbolic} {
		if OptionsDigest(core.Options{Enumerator: e}) != base {
			t.Fatalf("Enumerator=%q leaked into the options digest", e)
		}
	}
}

// TestResumeAcrossEnumerators: a checkpoint written by a bitset-scan run
// resumes under the symbolic enumerator (and vice versa) and converges
// to the uninterrupted front at the uninterrupted cursor — the shared
// candidate stream makes the cursor transferable between producers.
func TestResumeAcrossEnumerators(t *testing.T) {
	s := models.SetTopBox()
	full := core.Explore(s, core.Options{})
	part := interruptedResult(t, 800)
	writeOpts := core.Options{Enumerator: core.EnumeratorBitset}
	snap, err := FromResult(s, writeOpts, part)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []core.Enumerator{core.EnumeratorSymbolic, core.EnumeratorBitset} {
		opts := core.Options{Enumerator: e}
		res, err := snap.Resume(s, opts)
		if err != nil {
			t.Fatalf("Enumerator=%q refused the bitset snapshot: %v", e, err)
		}
		opts.Resume = res
		resumed := core.Explore(s, opts)
		if !frontsEqual(resumed.Front, full.Front) {
			t.Errorf("Enumerator=%q: resumed front differs from uninterrupted run", e)
		}
		if resumed.Cursor != full.Cursor {
			t.Errorf("Enumerator=%q: resumed cursor %d, want %d", e, resumed.Cursor, full.Cursor)
		}
	}
}

// TestOptionsDigestIgnoresProducers: the producer count shards the
// candidate enumeration but the k-way merge restores the bit-identical
// stream, so flipping it must not invalidate an existing checkpoint.
func TestOptionsDigestIgnoresProducers(t *testing.T) {
	base := OptionsDigest(core.Options{})
	for _, p := range []int{1, 2, 8} {
		if OptionsDigest(core.Options{Producers: p}) != base {
			t.Fatalf("Producers=%d leaked into the options digest", p)
		}
	}
}

// TestResumeAcrossProducerCounts: a checkpoint written by a sharded run
// resumes under any other producer count — direct scan included — and
// converges to the uninterrupted front at the uninterrupted cursor: the
// merged stream is bit-identical for every shard count, so the cursor
// is transferable.
func TestResumeAcrossProducerCounts(t *testing.T) {
	s := models.SetTopBox()
	full := core.Explore(s, core.Options{})
	part := interruptedResult(t, 800)
	writeOpts := core.Options{Producers: 2}
	snap, err := FromResult(s, writeOpts, part)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 1, 3} {
		opts := core.Options{Producers: p}
		res, err := snap.Resume(s, opts)
		if err != nil {
			t.Fatalf("Producers=%d refused the sharded snapshot: %v", p, err)
		}
		opts.Resume = res
		resumed := core.Explore(s, opts)
		if !frontsEqual(resumed.Front, full.Front) {
			t.Errorf("Producers=%d: resumed front differs from uninterrupted run", p)
		}
		if resumed.Cursor != full.Cursor {
			t.Errorf("Producers=%d: resumed cursor %d, want %d", p, resumed.Cursor, full.Cursor)
		}
	}
	// And across the parallel explorer, which auto-shards.
	res, err := snap.Resume(s, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if par := core.ExploreParallel(s, core.Options{Resume: res}, 4, 8); !frontsEqual(par.Front, full.Front) {
		t.Errorf("parallel resume of a sharded checkpoint diverges from the full run")
	}
}
