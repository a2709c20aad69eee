// Per-point checkpointing. As a sweep runs, every completed grid point is
// appended to its job's checkpoint rows — in memory always, and as one
// NDJSON line per point under CheckpointDir when configured. A row is
// keyed by (job key, point index): the job key is the spec's content
// address and a point's Row is a pure function of (normalized spec, point
// index), so a checkpointed row can be trusted across process restarts —
// resuming a half-finished sweep recomputes nothing and still produces the
// byte-identical final payload.
//
// Ownership: the rows live on their *Job (pointLog, guarded by the job's
// mutex) and leave the manager's table with it. They are the replay source
// for /api/v1/jobs/{id}/stream (seq numbers are per-job completion order).
// This file holds the row log and the NDJSON file code: load, append,
// remove, and the TTL GC. When a job completes its file is deleted (the
// assembled payload now lives on the job); a killed, canceled or failed
// job keeps its file, and the next submission of the same spec restores it
// and skips the completed points.
package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"time"
)

// PointRecord is one completed sweep point: checkpoint line, stream event
// payload, and resume unit all at once.
type PointRecord struct {
	// Seq is the 1-based per-job completion order — the stream's ?after=
	// resume cursor.
	Seq int `json:"seq"`
	// Index is the point's position on the normalized sweep axis; together
	// with the job key it addresses the record.
	Index int `json:"index"`
	// Label is the point's coordinate ("r=6", "n=5000", "loss=0.2").
	Label string `json:"label"`
	// ElapsedMS is the summed wall time of the point's work items.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Row is the point's rendered result row, exactly the bytes that will
	// appear in the final payload's row array.
	Row json.RawMessage `json:"row"`
}

// pointLog is one job's checkpoint rows plus its stream fan-out. The
// owning Job's mutex guards it.
type pointLog struct {
	records []PointRecord // completion order; records[i].Seq == i+1
	have    map[int]bool  // point indices present
	file    *os.File      // open append handle (nil when memory-only or closed)
	subs    map[int]chan PointRecord
	nextSub int
}

// inherit copies another log's rows (not its file or subscribers): a
// resubmission picks up where the previous terminal run of its spec
// stopped.
func (l *pointLog) inherit(from *pointLog) {
	l.records = slices.Clone(from.records)
	l.have = maps.Clone(from.have)
}

// add records one completed point: first write per index wins — the
// exactly-once-per-point contract — later duplicates are dropped (stored
// false). The stored record, stamped with its completion seq, goes to
// every live subscriber.
func (l *pointLog) add(rec PointRecord) (PointRecord, bool) {
	if l.have[rec.Index] {
		return rec, false
	}
	if l.have == nil {
		l.have = make(map[int]bool)
	}
	rec.Seq = len(l.records) + 1
	l.records = append(l.records, rec)
	l.have[rec.Index] = true
	for id, ch := range l.subs {
		select {
		case ch <- rec:
		default:
			// Lagging subscriber: drop it. The stream handler notices the
			// closed channel and re-replays from its last seen seq.
			close(ch)
			delete(l.subs, id)
		}
	}
	return rec, true
}

// restore returns the skip vector for a points-long sweep plus the number
// of restorable points. Out-of-range indices (a spec collision would be an
// SHA-256 break; far likelier a truncated axis from a changed cap) are
// ignored. (nil, 0) means a cold start.
func (l *pointLog) restore(points int) ([]bool, int) {
	skip := make([]bool, points)
	n := 0
	for _, rec := range l.records {
		if rec.Index < points && !skip[rec.Index] {
			skip[rec.Index] = true
			n++
		}
	}
	if n == 0 {
		return nil, 0
	}
	return skip, n
}

// rows returns the rows ordered by point index. ok is false unless every
// one of the points indices is present — the gate before assembling a
// final payload.
func (l *pointLog) rows(points int) ([]json.RawMessage, bool) {
	if len(l.records) < points {
		return nil, false
	}
	rows := make([]json.RawMessage, points)
	for _, rec := range l.records {
		if rec.Index < points {
			rows[rec.Index] = rec.Row
		}
	}
	for _, r := range rows {
		if r == nil {
			return nil, false
		}
	}
	return rows, true
}

// since returns a copy of the records with Seq > after, in completion
// order — the stream replay source.
func (l *pointLog) since(after int) []PointRecord {
	after = max(after, 0)
	if after >= len(l.records) {
		return nil
	}
	return slices.Clone(l.records[after:])
}

// closeFile closes the append handle without touching the file: on an
// incomplete job the file IS the resume state for the next submission.
func (l *pointLog) closeFile() {
	if l.file != nil {
		l.file.Close()
		l.file = nil
	}
}

// checkpointDir is the NDJSON side of checkpointing: one <key>.ndjson file
// per job under dir ("" = memory only). Disk writes are best-effort: a
// failing filesystem degrades to memory-only checkpointing (counted in
// diskErrors), it never fails the sweep.
type checkpointDir struct {
	dir        string
	diskErrors atomic.Int64
	purged     atomic.Int64
}

func (c *checkpointDir) path(key string) string {
	return filepath.Join(c.dir, key+".ndjson")
}

// load replays key's surviving checkpoint file, if any, into l.
func (c *checkpointDir) load(key string, l *pointLog) {
	if c.dir == "" {
		return
	}
	f, err := os.Open(c.path(key))
	if err != nil {
		return // no file = nothing checkpointed
	}
	defer f.Close()
	readCheckpoint(f, l)
}

// readCheckpoint replays checkpoint NDJSON into l: one JSON record per
// line, malformed lines and duplicate indices dropped (a torn final line
// from a kill -9 costs exactly that one point), seqs renumbered to
// completion order.
func readCheckpoint(r io.Reader, l *pointLog) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		var rec PointRecord
		if json.Unmarshal(sc.Bytes(), &rec) == nil && rec.Index >= 0 && len(rec.Row) > 0 {
			l.add(rec)
		}
	}
}

// append writes rec as one line of key's file, opening *f on first use.
func (c *checkpointDir) append(key string, f **os.File, rec PointRecord) {
	if c.dir == "" {
		return
	}
	if *f == nil {
		if err := os.MkdirAll(c.dir, 0o755); err != nil {
			c.diskErrors.Add(1)
			return
		}
		file, err := os.OpenFile(c.path(key), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			c.diskErrors.Add(1)
			return
		}
		*f = file
	}
	line, err := json.Marshal(rec)
	if err != nil {
		c.diskErrors.Add(1)
		return
	}
	if _, err := (*f).Write(append(line, '\n')); err != nil {
		c.diskErrors.Add(1)
	}
}

// remove deletes key's file (a completed or pruned job).
func (c *checkpointDir) remove(key string) {
	if c.dir != "" {
		os.Remove(c.path(key))
	}
}

// gc purges stale checkpoint files: NDJSON files under dir whose key is
// not live (i.e. leftovers from earlier process lifetimes whose spec was
// never resubmitted) and whose last modification is older than ttl. Files
// of live jobs are never touched; their lifecycle owns them. The caller
// keeps the live set stable for the duration. It returns the number of
// files removed. A non-positive ttl or a memory-only store is a no-op.
func (c *checkpointDir) gc(ttl time.Duration, live func(key string) bool) int {
	if c.dir == "" || ttl <= 0 {
		return 0
	}
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return 0
	}
	cutoff := time.Now().Add(-ttl)
	purged := 0
	for _, e := range entries {
		key, ok := strings.CutSuffix(e.Name(), ".ndjson")
		if !ok || e.IsDir() || live(key) {
			continue
		}
		info, err := e.Info()
		if err != nil || info.ModTime().After(cutoff) {
			continue
		}
		if os.Remove(filepath.Join(c.dir, e.Name())) == nil {
			purged++
		}
	}
	c.purged.Add(int64(purged))
	return purged
}
