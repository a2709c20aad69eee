package simtest

import (
	"fmt"
	"math"

	"netags/internal/core"
	"netags/internal/geom"
	"netags/internal/prng"
	"netags/internal/topology"
)

// Shape enumerates the generator families. Each family targets a failure
// mode the uniform-disk fixtures cannot reach: deep relay chains, hub stars,
// disconnected clusters (reachable and not), everything-in-one-tier blobs,
// and deployments that spill past the reader's field of view.
type Shape uint8

const (
	// ShapeUniform is a uniform disk whose radius may exceed the reader's
	// broadcast range, so some tags sit outside the field of view.
	ShapeUniform Shape = iota
	// ShapeClustered groups tags in Gaussian clumps (warehouse pallets).
	ShapeClustered
	// ShapeChain is a single relay chain marching away from the reader.
	ShapeChain
	// ShapeStar is several chains sharing the reader as hub.
	ShapeStar
	// ShapeDisconnected is a reachable core plus clusters severed from it.
	ShapeDisconnected
	// ShapeSingleTier puts every tag inside the tag-to-reader range.
	ShapeSingleTier
	// ShapeDeepChain shrinks the tag-to-tag range to maximize tier depth.
	ShapeDeepChain

	numShapes
)

// String names the shape for failure messages.
func (s Shape) String() string {
	switch s {
	case ShapeUniform:
		return "uniform"
	case ShapeClustered:
		return "clustered"
	case ShapeChain:
		return "chain"
	case ShapeStar:
		return "star"
	case ShapeDisconnected:
		return "disconnected"
	case ShapeSingleTier:
		return "single-tier"
	case ShapeDeepChain:
		return "deep-chain"
	}
	return fmt.Sprintf("shape(%d)", uint8(s))
}

// NewScenario generates the scenario identified by seed: shape, ranges,
// deployment, obstacles, and the derived network are all pure functions of
// the seed.
func NewScenario(seed uint64) *Scenario {
	src := prng.New(prng.DeriveSeed(seed, 0x5ce9a410))
	return build(seed, Shape(src.Intn(int(numShapes))), src, -1)
}

// NewScenarioShape is NewScenario with the family pinned — for minimized
// regression tests that must stay in the shape that exposed a bug.
func NewScenarioShape(seed uint64, shape Shape) *Scenario {
	src := prng.New(prng.DeriveSeed(seed, 0x5ce9a410))
	src.Intn(int(numShapes)) // discard the shape draw to keep streams aligned
	return build(seed, shape, src, -1)
}

// NewScenarioTags is NewScenarioShape in the uniform family with exactly
// tags tags instead of the generator's 0–120, for inputs that must reach a
// given population: the session fuzzer uses it to put the tag count across
// the 64-tag words of the session's bitsets. As in the family, the disk may
// spill past the reader's field of view.
func NewScenarioTags(seed uint64, tags int) *Scenario {
	src := prng.New(prng.DeriveSeed(seed, 0x5ce9a410))
	src.Intn(int(numShapes))
	return build(seed, ShapeUniform, src, tags)
}

// build draws the scenario of the given shape from src. A non-negative
// tags pins the uniform family's tag count; the draw it replaces is still
// made, so the rest of the stream stays aligned.
func build(seed uint64, shape Shape, src *prng.Source, tags int) *Scenario {
	sc := &Scenario{Seed: seed, Shape: shape}
	sc.Ranges = topology.Ranges{
		ReaderToTag: 10 + 30*src.Float64(),
	}
	sc.Ranges.TagToReader = sc.Ranges.ReaderToTag * (0.25 + 0.7*src.Float64())
	sc.Ranges.TagToTag = 1 + 11*src.Float64()

	switch shape {
	case ShapeUniform:
		n := src.Intn(121)
		if tags >= 0 {
			n = tags
		}
		// Up to 1.5×R: tags beyond the broadcast range exist but are
		// outside the system.
		radius := sc.Ranges.ReaderToTag * (0.4 + 1.1*src.Float64())
		sc.Deployment = geom.NewUniformDisk(n, radius, src.Uint64())
	case ShapeClustered:
		n := src.Intn(121)
		clusters := 1 + src.Intn(5)
		spread := sc.Ranges.TagToTag * (0.5 + 2*src.Float64())
		radius := sc.Ranges.ReaderToTag * (0.5 + 0.8*src.Float64())
		sc.Deployment = geom.NewClusteredDisk(n, radius, clusters, spread, src.Uint64())
	case ShapeChain:
		sc.Deployment = chain(src, sc.Ranges, 1+src.Intn(45))
	case ShapeStar:
		d := &geom.Deployment{Readers: []geom.Point{{}}}
		rays := 2 + src.Intn(4)
		for ray := 0; ray < rays; ray++ {
			arm := chain(src, sc.Ranges, 1+src.Intn(15))
			d.Tags = append(d.Tags, arm.Tags...)
			d.Radius = math.Max(d.Radius, arm.Radius)
		}
		sc.Deployment = d
	case ShapeDisconnected:
		sc.Deployment = disconnected(src, sc.Ranges)
	case ShapeSingleTier:
		n := src.Intn(81)
		radius := 0.95 * sc.Ranges.TagToReader
		sc.Deployment = geom.NewUniformDisk(n, radius, src.Uint64())
	case ShapeDeepChain:
		sc.Ranges.TagToTag = 0.5 + 1.5*src.Float64()
		sc.Deployment = chain(src, sc.Ranges, 10+src.Intn(51))
	}

	// Occasionally drop wall segments across the deployment: obstacles
	// block the weak tag-originated links but not the reader's broadcast.
	if src.Float64() < 0.2 {
		sc.Obstacles = Walls(src, sc.Ranges.ReaderToTag)
	}

	nw, err := topology.BuildObstructed(sc.Deployment, 0, sc.Ranges, sc.Obstacles)
	if err != nil {
		// The generator only emits valid ranges and reader indices, so a
		// build error is itself a bug worth failing loudly on.
		panic(fmt.Sprintf("simtest: seed %#x: %v", seed, err))
	}
	sc.Network = nw
	return sc
}

// Walls draws the generator's obstacles: one or two wall segments with both
// endpoints uniform in the disk of the given radius around the reader.
func Walls(src *prng.Source, radius float64) []geom.Segment {
	walls := make([]geom.Segment, 1+src.Intn(2))
	for w := range walls {
		walls[w] = geom.Segment{A: geom.SampleDisk(src, radius), B: geom.SampleDisk(src, radius)}
	}
	return walls
}

// chain lays count tags along one ray from the reader, spaced within the
// tag-to-tag range so consecutive tags can relay, starting inside the
// tag-to-reader range so the chain is rooted at tier 1. Long chains march
// straight out of the field of view.
func chain(src *prng.Source, rg topology.Ranges, count int) *geom.Deployment {
	step := rg.TagToTag * (0.5 + 0.45*src.Float64())
	start := rg.TagToReader * (0.3 + 0.5*src.Float64())
	angle := 2 * math.Pi * src.Float64()
	cos, sin := math.Cos(angle), math.Sin(angle)
	d := &geom.Deployment{Readers: []geom.Point{{}}}
	for i := 0; i < count; i++ {
		dist := start + float64(i)*step
		d.Tags = append(d.Tags, geom.Point{X: dist * cos, Y: dist * sin})
		d.Radius = dist
	}
	return d
}

// disconnected builds a reachable core inside the tag-to-reader range plus
// 1–3 satellite clusters whose centers sit at least two tag-to-tag ranges
// beyond the core, so no relay path can bridge the gap. Satellites may fall
// inside the field of view (unreachable but broadcast-covered) or beyond it.
func disconnected(src *prng.Source, rg topology.Ranges) *geom.Deployment {
	coreRadius := 0.6 * rg.TagToReader
	d := geom.NewUniformDisk(2+src.Intn(30), coreRadius, src.Uint64())
	clusters := 1 + src.Intn(3)
	for c := 0; c < clusters; c++ {
		satRadius := 0.8 * rg.TagToTag
		gap := coreRadius + 2*rg.TagToTag + satRadius
		dist := gap + src.Float64()*rg.ReaderToTag
		angle := 2 * math.Pi * src.Float64()
		center := geom.Point{X: dist * math.Cos(angle), Y: dist * math.Sin(angle)}
		for i, n := 0, 1+src.Intn(8); i < n; i++ {
			p := geom.SampleDisk(src, satRadius)
			d.Tags = append(d.Tags, geom.Point{X: center.X + p.X, Y: center.Y + p.Y})
		}
		d.Radius = math.Max(d.Radius, dist+satRadius)
	}
	return d
}

// NewConfig draws a randomized session config for the scenario from src:
// frame size, request seed, and one of four participation styles (full,
// sampled, multi-slot picker, or explicit random IDs). Termination bounds
// are provisioned from the network's true tier depth so a correct session
// can always complete; the channel is reliable (LossProb 0) because the
// exact oracles need it. Callers set LossProb afterwards when testing the
// unreliable extension.
func (sc *Scenario) NewConfig(src *prng.Source) core.Config {
	f := 1 + src.Intn(256)
	cfg := core.Config{
		FrameSize:        f,
		Seed:             src.Uint64(),
		Sampling:         1,
		CheckingFrameLen: sc.Network.K + 2,
		MaxRounds:        sc.Network.K + 2,
	}
	switch src.Intn(4) {
	case 0:
		// Full participation.
	case 1:
		cfg.Sampling = src.Float64()
	case 2:
		cfg.Picker = MultiSlotPicker(cfg.Seed, f, 1+src.Intn(3))
	case 3:
		cfg.IDs = RandomIDs(src, sc.Network.N())
	}
	return cfg
}

// MultiSlotPicker returns a pure k-slot picker (Bloom-style tag search):
// tag id occupies k hash-derived slots. Like every SlotPicker it depends
// only on (id, seed), never on the tag index.
func MultiSlotPicker(seed uint64, frameSize, k int) core.SlotPicker {
	return func(_ int, id uint64) []int {
		slots := make([]int, k)
		for j := range slots {
			slots[j] = prng.SlotOf(id, seed+uint64(j)*0x9e37, frameSize)
		}
		return slots
	}
}

// Sessions returns a session runner bound to nw — core.RunSession with the
// network fixed — the runner gmle.EstimateWith and lof.EstimateWith take,
// so tests drive an estimator over one network the way the facade drives
// it over a system.
func Sessions(nw *topology.Network) core.SessionRunner {
	return func(cfg core.Config) (*core.Result, error) { return core.RunSession(nw, cfg) }
}
