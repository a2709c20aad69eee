// Result execution and rendering. runSpecHooked is the single bridge from
// a canonical JobSpec to experiment.Run: it streams every completed grid
// point out through a hook as the kind's deterministic row JSON. The final
// payload is assembled from those per-point rows by assemblePayload — the
// same function whether the rows were computed just now, restored from a
// checkpoint, or a mix — so an interrupted-and-resumed sweep produces
// byte-identical payloads to an uninterrupted run by construction.
// Byte-identical payloads for equal specs are what make the
// content-addressed cache exact.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"netags/internal/experiment"
	"netags/internal/obs"
)

// runHooks carries the per-run wiring from the manager into runSpecHooked.
type runHooks struct {
	// observe receives the sweep's per-item Progress events (the manager
	// keeps the last one for the job's status).
	observe func(experiment.Progress)
	// tracer, if non-nil, receives every protocol run's event stream.
	tracer obs.Tracer
	// skip marks point indices already checkpointed; their work items are
	// not run (the resume path). nil means run everything.
	skip []bool
	// pointDone, if non-nil, receives each computed point's record (Seq
	// unset — the checkpoint store stamps it) as soon as the point's last
	// trial lands. Calls are serialized.
	pointDone func(rec PointRecord)
}

// runSpecHooked executes the normalized spec with the given worker budget,
// streaming every computed point out through h.pointDone. It returns no
// payload: the caller assembles one from the complete row set (checkpoint
// plus fresh points) with assemblePayload.
func runSpecHooked(ctx context.Context, spec JobSpec, workers int, h runHooks) error {
	n := spec.Normalized()
	if err := n.Validate(); err != nil {
		return err
	}
	x := experiment.Exec{Workers: workers, Tracer: h.tracer, Observe: h.observe, Skip: h.skip}
	if h.pointDone != nil {
		x.PointDone = func(p experiment.PointInfo) {
			h.pointDone(PointRecord{
				Index:     p.Index,
				Label:     n.PointLabel(p.Index),
				ElapsedMS: float64(p.Elapsed) / float64(time.Millisecond),
				Row:       p.Row,
			})
		}
	}
	_, err := experiment.Run(ctx, experiment.Spec(n), x)
	return err
}

// assemblePayload renders the final result document — served by GET
// /api/v1/jobs/{id}/result and stored in the cache — from the job's
// complete, index-ordered row set: the job's key, the normalized spec it
// was computed from, and the rows under the kind's member ("range_rows",
// "density_rows", "loss_rows"). It is the only payload producer:
// uninterrupted, resumed, and direct runs all funnel through it, which is
// what makes their bytes identical.
func assemblePayload(key string, spec JobSpec, rows []json.RawMessage) ([]byte, error) {
	n := spec.Normalized()
	field := experiment.Spec(n).RowsField()
	if field == "" {
		return nil, fmt.Errorf("serve: unknown sweep kind %q", n.Sweep)
	}
	head, err := json.Marshal(struct {
		Key  string  `json:"key"`
		Spec JobSpec `json:"spec"`
	}{key, n})
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(rows)
	if err != nil {
		return nil, err
	}
	// head is a JSON object; splice the rows in as its last member.
	out := append(head[:len(head)-1], `,"`+field+`":`...)
	return append(append(out, body...), '}', '\n'), nil
}

// runSpec executes the spec start-to-finish and returns the assembled
// payload — the direct, checkpoint-free path, used by tests as the
// byte-identity reference for everything the service layers on top.
func runSpec(ctx context.Context, spec JobSpec, workers int, observe func(experiment.Progress), tracer obs.Tracer) ([]byte, error) {
	n := spec.Normalized()
	if err := n.Validate(); err != nil {
		return nil, err
	}
	key, err := n.Key()
	if err != nil {
		return nil, err
	}
	rows := make([]json.RawMessage, n.PointCount())
	err = runSpecHooked(ctx, n, workers, runHooks{
		observe: observe,
		tracer:  tracer,
		pointDone: func(rec PointRecord) {
			if rec.Index >= 0 && rec.Index < len(rows) {
				rows[rec.Index] = rec.Row
			}
		},
	})
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		if r == nil {
			return nil, fmt.Errorf("serve: sweep finished without point %d", i)
		}
	}
	return assemblePayload(key, n, rows)
}
