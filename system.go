package netags

import (
	"fmt"
	"math"

	"netags/internal/core"
	"netags/internal/geom"
	"netags/internal/obs"
	"netags/internal/topology"
)

// Position is a location in the deployment plane, in meters.
type Position struct {
	X, Y float64
}

// SystemOptions describes a networked tag system to simulate. The zero
// value of every field except Tags has a sensible default drawn from the
// paper's evaluation setting (§VI-A).
type SystemOptions struct {
	// Tags is the number of deployed tags (required).
	Tags int
	// Radius is the deployment disk radius in meters (default 30).
	Radius float64
	// ReaderRange is the reader→tag broadcast range R (default 30).
	ReaderRange float64
	// TagToReaderRange is the tag→reader range r' (default 20).
	TagToReaderRange float64
	// InterTagRange is the tag↔tag range r (default 6; the paper sweeps
	// 2–10).
	InterTagRange float64
	// Readers places the readers; empty means one reader at the origin.
	Readers []Position
	// Clusters groups the tags into this many Gaussian clusters instead of
	// the paper's uniform placement (0 = uniform). Real inventories are
	// clustered — pallets, shelving bays — and every protocol runs on them
	// unchanged. Clustered layouts support a single reader at the origin.
	Clusters int
	// ClusterSpread is the Gaussian standard deviation of each cluster in
	// meters (default Radius/6). Only used when Clusters > 0.
	ClusterSpread float64
	// Seed determines the deployment (tag positions) deterministically.
	Seed uint64
	// IDs assigns tag identifiers; nil means sequential IDs starting at 1.
	IDs []uint64
	// Walls are obstacle segments that block the weak tag-originated links
	// (tag↔tag and tag→reader). The reader's high-power broadcast
	// penetrates them — the paper's motivating scenario of coverage holes
	// that multi-hop relaying routes around.
	Walls []Wall
	// CheckingFrameLen overrides the checking-frame length L_c, which also
	// bounds the rounds per session (Algorithm 1 line 3). The default is
	// the paper's empirical 2·(1 + ⌈(R−r')/r⌉), derived from open-floor
	// geometry; deployments with obstacles have detour paths deeper than
	// that estimate and must size it up, or sessions truncate (results
	// carry a Truncated flag when that happens).
	CheckingFrameLen int
}

// Wall is an obstacle segment in the deployment plane.
type Wall struct {
	From, To Position
}

func (o *SystemOptions) setDefaults() {
	if o.Radius == 0 {
		o.Radius = 30
	}
	if o.ReaderRange == 0 {
		o.ReaderRange = 30
	}
	if o.TagToReaderRange == 0 {
		o.TagToReaderRange = 20
	}
	if o.InterTagRange == 0 {
		o.InterTagRange = 6
	}
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// System is a simulated deployment of networked tags around one or more
// readers, ready to run system-level operations. Create one with NewSystem;
// a System is immutable and safe to reuse across operations.
type System struct {
	deployment  *geom.Deployment
	ranges      topology.Ranges
	obstacles   []geom.Segment
	checkingLen int
	networks    []*topology.Network // one per reader
	ids         []uint64
	idIndex     map[uint64]int
	reachable   int
	tracer      obs.Tracer
}

// NewSystem samples a deployment and derives its network structure.
func NewSystem(opts SystemOptions) (*System, error) {
	if opts.Tags < 0 {
		return nil, fmt.Errorf("netags: negative tag count %d", opts.Tags)
	}
	opts.setDefaults()
	// Only non-finite values are rejected here: a non-positive cluster
	// spread still means the default. The ranges are checked by
	// topology.Ranges.Validate.
	if !isFinite(opts.Radius) {
		return nil, fmt.Errorf("netags: radius %v must be finite", opts.Radius)
	}
	if !isFinite(opts.ClusterSpread) {
		return nil, fmt.Errorf("netags: cluster spread %v must be finite", opts.ClusterSpread)
	}
	if opts.IDs != nil && len(opts.IDs) != opts.Tags {
		return nil, fmt.Errorf("netags: %d IDs for %d tags", len(opts.IDs), opts.Tags)
	}
	readers := []geom.Point{{}}
	if len(opts.Readers) > 0 {
		readers = make([]geom.Point, len(opts.Readers))
		for i, p := range opts.Readers {
			readers[i] = geom.Point{X: p.X, Y: p.Y}
		}
	}
	var d *geom.Deployment
	if opts.Clusters > 0 {
		if len(opts.Readers) > 0 {
			return nil, fmt.Errorf("netags: clustered layouts support only the default centered reader")
		}
		d = geom.NewClusteredDisk(opts.Tags, opts.Radius, opts.Clusters, opts.ClusterSpread, opts.Seed)
	} else {
		d = geom.NewUniformDiskMultiReader(opts.Tags, opts.Radius, readers, opts.Seed)
	}
	rg := topology.Ranges{
		ReaderToTag: opts.ReaderRange,
		TagToReader: opts.TagToReaderRange,
		TagToTag:    opts.InterTagRange,
	}
	obstacles := make([]geom.Segment, len(opts.Walls))
	for i, w := range opts.Walls {
		obstacles[i] = geom.Segment{
			A: geom.Point{X: w.From.X, Y: w.From.Y},
			B: geom.Point{X: w.To.X, Y: w.To.Y},
		}
	}
	if opts.CheckingFrameLen < 0 {
		return nil, fmt.Errorf("netags: negative checking-frame length %d", opts.CheckingFrameLen)
	}
	s, err := newSystem(d, rg, obstacles, opts.IDs)
	if err != nil {
		return nil, err
	}
	s.checkingLen = opts.CheckingFrameLen
	return s, nil
}

func newSystem(d *geom.Deployment, rg topology.Ranges, obstacles []geom.Segment, ids []uint64) (*System, error) {
	networks, err := topology.BuildReaders(d, rg, obstacles)
	if err != nil {
		return nil, fmt.Errorf("netags: %w", err)
	}
	s := &System{deployment: d, ranges: rg, obstacles: obstacles, networks: networks}
	if ids == nil {
		ids = make([]uint64, d.N())
		for i := range ids {
			ids[i] = uint64(i) + 1
		}
	} else {
		ids = append([]uint64(nil), ids...)
	}
	s.ids = ids
	s.idIndex = make(map[uint64]int, len(ids))
	for i, id := range ids {
		if _, dup := s.idIndex[id]; dup {
			return nil, fmt.Errorf("netags: duplicate tag ID %d", id)
		}
		s.idIndex[id] = i
	}
	for i := 0; i < d.N(); i++ {
		if s.inSystem(i) {
			s.reachable++
		}
	}
	return s, nil
}

// inSystem reports whether deployment tag i can reach at least one reader.
func (s *System) inSystem(i int) bool {
	for _, nw := range s.networks {
		if nw.Tier[i] > 0 {
			return true
		}
	}
	return false
}

// TagCount returns the number of deployed tags.
func (s *System) TagCount() int { return s.deployment.N() }

// Reachable returns the number of tags that can reach at least one reader —
// the population the paper calls "in the system".
func (s *System) Reachable() int { return s.reachable }

// Readers returns the number of readers.
func (s *System) Readers() int { return len(s.networks) }

// Tiers returns the tier count K of the reader with the deepest network
// (for a single reader, exactly the paper's K).
func (s *System) Tiers() int {
	k := 0
	for _, nw := range s.networks {
		if nw.K > k {
			k = nw.K
		}
	}
	return k
}

// Density returns tags per square meter over the deployment disk.
func (s *System) Density() float64 { return s.deployment.Density() }

// IDs returns the identifiers of all deployed tags (a copy).
func (s *System) IDs() []uint64 {
	return append([]uint64(nil), s.ids...)
}

// ReachableIDs returns the identifiers of in-system tags (a copy).
func (s *System) ReachableIDs() []uint64 {
	out := make([]uint64, 0, s.reachable)
	for i, id := range s.ids {
		if s.inSystem(i) {
			out = append(out, id)
		}
	}
	return out
}

// RemoveTags returns a copy of the system with the given tag IDs physically
// removed — the way missing-tag experiments model theft or loss. Unknown
// IDs are reported as an error.
func (s *System) RemoveTags(ids []uint64) (*System, error) {
	indices := make([]int, 0, len(ids))
	for _, id := range ids {
		i, ok := s.idIndex[id]
		if !ok {
			return nil, fmt.Errorf("netags: unknown tag ID %d", id)
		}
		indices = append(indices, i)
	}
	nd, orig := s.deployment.Remove(indices)
	newIDs := make([]uint64, nd.N())
	for newIdx, oldIdx := range orig {
		newIDs[newIdx] = s.ids[oldIdx]
	}
	ns, err := newSystem(nd, s.ranges, s.obstacles, newIDs)
	if err != nil {
		return nil, err
	}
	ns.checkingLen = s.checkingLen
	return ns, nil
}

// WithTracer returns a copy of the system that feeds the structured event
// stream of every subsequent operation to t (see internal/obs for event
// kinds and concrete tracers). Tracers are observe-only: the simulation's
// results are bit-identical with or without one. A nil t returns a copy
// with tracing off. The tracer does not survive RemoveTags (that models a
// physically different deployment); re-attach if needed.
func (s *System) WithTracer(t obs.Tracer) *System {
	ns := *s
	ns.tracer = t
	return &ns
}

// DirectCoverage returns the number of tags a traditional one-hop RFID
// system would reach: within tag→reader range of a reader with a clear line
// of sight. The gap between this and Reachable is what multi-hop relaying
// buys.
func (s *System) DirectCoverage() int {
	count := 0
	for i := 0; i < s.deployment.N(); i++ {
		for _, nw := range s.networks {
			if nw.Tier[i] == 1 {
				count++
				break
			}
		}
	}
	return count
}

// runSession executes one CCM session across all readers (round-robin for
// multiple readers, per §III-G) and returns the OR-combined result.
func (s *System) runSession(cfg core.Config) (*core.Result, error) {
	cfg.IDs = s.ids
	if cfg.CheckingFrameLen == 0 {
		cfg.CheckingFrameLen = s.checkingLen
	}
	if cfg.Tracer == nil {
		cfg.Tracer = s.tracer
	}
	if len(s.networks) == 1 {
		return core.RunSession(s.networks[0], cfg)
	}
	res, err := core.RunReaders(s.networks, cfg)
	if err != nil {
		return nil, fmt.Errorf("netags: %w", err)
	}
	return res, nil
}
