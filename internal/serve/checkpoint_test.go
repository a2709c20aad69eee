package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func rec(index int) PointRecord {
	return PointRecord{
		Index: index,
		Label: fmt.Sprintf("r=%d", index),
		Row:   json.RawMessage(fmt.Sprintf(`{"r":%d}`, index)),
	}
}

// writeRecs appends recs to key's file under c, the way a running job
// does, and closes the handle.
func writeRecs(c *checkpointDir, key string, recs ...PointRecord) {
	var l pointLog
	for _, r := range recs {
		if r, ok := l.add(r); ok {
			c.append(key, &l.file, r)
		}
	}
	l.closeFile()
}

// TestCheckpointExactlyOnce: the first write per index wins; duplicates
// change nothing and seqs stay dense completion order.
func TestCheckpointExactlyOnce(t *testing.T) {
	var l pointLog
	l.add(rec(2))
	l.add(rec(0))
	if _, stored := l.add(rec(2)); stored { // duplicate index: dropped
		t.Fatal("duplicate index stored")
	}
	l.add(rec(1))

	if n := len(l.records); n != 3 {
		t.Fatalf("records = %d, want 3", n)
	}
	got := l.since(0)
	wantIdx := []int{2, 0, 1}
	for i, r := range got {
		if r.Seq != i+1 || r.Index != wantIdx[i] {
			t.Errorf("record %d = seq %d index %d, want seq %d index %d", i, r.Seq, r.Index, i+1, wantIdx[i])
		}
	}
	if more := l.since(2); len(more) != 1 || more[0].Index != 1 {
		t.Errorf("since(2) = %+v, want the third record only", more)
	}
}

// TestCheckpointRestoreRows: restore reports the skip vector and rows
// orders by index, refusing while points are missing.
func TestCheckpointRestoreRows(t *testing.T) {
	var l pointLog
	if skip, n := l.restore(3); skip != nil || n != 0 {
		t.Fatalf("cold restore = %v, %d", skip, n)
	}
	l.add(rec(2))
	l.add(rec(0))
	skip, n := l.restore(3)
	if n != 2 || !skip[0] || skip[1] || !skip[2] {
		t.Fatalf("restore = %v, %d, want [true false true], 2", skip, n)
	}
	if _, ok := l.rows(3); ok {
		t.Fatal("rows succeeded with a missing point")
	}
	l.add(rec(1))
	rows, ok := l.rows(3)
	if !ok {
		t.Fatal("rows failed with all points present")
	}
	for i, r := range rows {
		if string(r) != fmt.Sprintf(`{"r":%d}`, i) {
			t.Errorf("row %d = %s", i, r)
		}
	}
}

// TestCheckpointDiskRoundTrip: records appended to a file are restored by
// a fresh load on the same dir — the process-restart path — and the
// restored log continues where the file left off.
func TestCheckpointDiskRoundTrip(t *testing.T) {
	c := &checkpointDir{dir: t.TempDir()}
	writeRecs(c, "job", rec(1), rec(0))

	var l pointLog
	c.load("job", &l)
	skip, n := l.restore(3)
	if n != 2 || !skip[0] || !skip[1] || skip[2] {
		t.Fatalf("restored skip = %v, %d", skip, n)
	}
	// The reloaded records keep their payloads and renumbered seqs.
	recs := l.since(0)
	if len(recs) != 2 || recs[0].Index != 1 || recs[1].Index != 0 {
		t.Fatalf("reloaded records = %+v", recs)
	}
	// Appending continues where the file left off.
	r, _ := l.add(rec(2))
	c.append("job", &l.file, r)
	l.closeFile()
	var again pointLog
	c.load("job", &again)
	if got := len(again.records); got != 3 {
		t.Fatalf("count after continue = %d", got)
	}
	c.remove("job")
	if _, err := os.Stat(filepath.Join(c.dir, "job.ndjson")); !os.IsNotExist(err) {
		t.Errorf("remove left the checkpoint file behind: %v", err)
	}
}

// TestCheckpointTornLine: a truncated final line (kill -9 mid-write) costs
// exactly that record; intact lines load.
func TestCheckpointTornLine(t *testing.T) {
	c := &checkpointDir{dir: t.TempDir()}
	writeRecs(c, "job", rec(0), rec(1))

	path := filepath.Join(c.dir, "job.ndjson")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	var l pointLog
	c.load("job", &l)
	skip, n := l.restore(2)
	if n != 1 || !skip[0] || skip[1] {
		t.Fatalf("after torn line: skip = %v, n = %d, want only point 0", skip, n)
	}
}

// TestCheckpointWatch: replay covers history, the live channel delivers
// appends, and cancel unsubscribes.
func TestCheckpointWatch(t *testing.T) {
	j := &Job{ID: "k"}
	j.rows.add(rec(0))
	replay, ch, cancel := j.watch(0)
	defer cancel()
	if len(replay) != 1 || replay[0].Index != 0 {
		t.Fatalf("replay = %+v", replay)
	}
	j.rows.add(rec(1))
	live := <-ch
	if live.Index != 1 || live.Seq != 2 {
		t.Fatalf("live = %+v", live)
	}
	// A cursor past history replays nothing.
	replay2, _, cancel2 := j.watch(2)
	cancel2()
	if len(replay2) != 0 {
		t.Fatalf("replay past end = %+v", replay2)
	}
	if len(j.rows.subs) != 1 {
		t.Fatalf("subscribers after cancel = %d, want 1", len(j.rows.subs))
	}
}

// TestCheckpointForget: pruning a canceled job drops its checkpoint with
// it — the rows leave the table and the resume file is deleted — so a
// later submission of the spec starts cold.
func TestCheckpointForget(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	m := NewManager(Config{Workers: 1, MaxJobs: 1, CheckpointDir: dir,
		run: func(ctx context.Context, s JobSpec, w int, h runHooks) error {
			emitStubPoints(s, h)
			select {
			case <-gate:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}})
	defer func() { close(gate); m.Shutdown(context.Background()) }()

	st, _, err := m.Submit(testSpec(0), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, st.ID)
	m.Cancel(st.ID)
	waitTerminal(t, m, st.ID)
	file := filepath.Join(dir, st.ID+".ndjson")
	if _, err := os.Stat(file); err != nil {
		t.Fatalf("canceled job lost its resume file: %v", err)
	}
	if got := m.tableStats().rowJobs; got != 1 {
		t.Fatalf("jobs holding rows = %d, want 1", got)
	}

	// A second job pushes the canceled one out of the table.
	if _, _, err := m.Submit(testSpec(1), SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Job(st.ID); ok {
		t.Fatal("canceled job survived pruning")
	}
	if _, err := os.Stat(file); !os.IsNotExist(err) {
		t.Errorf("prune left the checkpoint file: %v", err)
	}
	if s := m.tableStats(); s.rowJobs > 1 {
		t.Errorf("pruned job's rows still held: %+v", s)
	}
}

// TestCheckpointGC: only stale files whose key is not live are purged — a
// crash leftover nobody resubmitted goes, a live job's file and a fresh
// leftover stay.
func TestCheckpointGC(t *testing.T) {
	c := &checkpointDir{dir: t.TempDir()}
	old := time.Now().Add(-2 * time.Hour)
	live := func(key string) bool { return key == "live" }

	// Live job with an old file: retained because the key is live.
	writeRecs(c, "live", rec(0))
	livePath := filepath.Join(c.dir, "live.ndjson")
	if err := os.Chtimes(livePath, old, old); err != nil {
		t.Fatal(err)
	}
	// Stale leftover from a dead process: purged.
	stalePath := filepath.Join(c.dir, "stale.ndjson")
	if err := os.WriteFile(stalePath, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(stalePath, old, old); err != nil {
		t.Fatal(err)
	}
	// Fresh leftover inside the TTL: retained.
	freshPath := filepath.Join(c.dir, "fresh.ndjson")
	if err := os.WriteFile(freshPath, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A non-checkpoint file is never touched.
	otherPath := filepath.Join(c.dir, "README.txt")
	if err := os.WriteFile(otherPath, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(otherPath, old, old); err != nil {
		t.Fatal(err)
	}

	if n := c.gc(time.Hour, live); n != 1 {
		t.Fatalf("GC purged %d files, want 1", n)
	}
	for _, p := range []string{livePath, freshPath, otherPath} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("GC removed %s: %v", p, err)
		}
	}
	if _, err := os.Stat(stalePath); !os.IsNotExist(err) {
		t.Errorf("stale file survived GC: %v", err)
	}
	if got := c.purged.Load(); got != 1 {
		t.Errorf("purged = %d, want 1", got)
	}

	// Disabled paths: no dir, or no TTL.
	if n := (&checkpointDir{}).gc(time.Hour, live); n != 0 {
		t.Errorf("dirless GC purged %d", n)
	}
	if n := c.gc(0, live); n != 0 {
		t.Errorf("ttl-0 GC purged %d", n)
	}
}

// TestManagerCheckpointGC: a manager built with CheckpointDir and
// CheckpointTTL purges, on startup, an unreferenced checkpoint file aged
// past the TTL, keeps a fresh one, and counts the purge on /metrics.
func TestManagerCheckpointGC(t *testing.T) {
	dir := t.TempDir()
	old := time.Now().Add(-2 * time.Hour)
	stalePath := filepath.Join(dir, "stale.ndjson")
	freshPath := filepath.Join(dir, "fresh.ndjson")
	for _, p := range []string{stalePath, freshPath} {
		if err := os.WriteFile(p, []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Chtimes(stalePath, old, old); err != nil {
		t.Fatal(err)
	}

	m := NewManager(Config{Workers: 1, CheckpointDir: dir, CheckpointTTL: time.Hour, run: stubRun(nil, nil)})
	defer m.Shutdown(context.Background())
	if _, err := os.Stat(stalePath); !os.IsNotExist(err) {
		t.Errorf("stale file survived the startup GC: %v", err)
	}
	if _, err := os.Stat(freshPath); err != nil {
		t.Errorf("startup GC removed the fresh file: %v", err)
	}
	if text := promText(t, m.Registry()); !strings.Contains(text, "\nnetags_serve_checkpoint_purged_total 1\n") {
		t.Errorf("purge not counted on /metrics:\n%s", text)
	}
}
