package editops

import (
	"fmt"
	"math"

	"repro/internal/imaging"
)

// Geom tracks the geometric state of an image as a sequence executes: its
// dimensions and the current Defined Region. The instantiation engine and
// the rule engine both step Geom through the sequence, which is what
// guarantees the rules reason about exactly the pixels the instantiator
// touches (same clipped DR areas, same output dimensions).
type Geom struct {
	// W, H are the current image dimensions.
	W, H int
	// DR is the current Defined Region in image coordinates, possibly
	// extending beyond the canvas; EffectiveDR clips it.
	DR imaging.Rect
}

// StartGeom returns the initial geometry for a w×h base image: DR is the
// whole image.
func StartGeom(w, h int) Geom {
	return Geom{W: w, H: h, DR: imaging.Rect{X0: 0, Y0: 0, X1: w, Y1: h}}
}

// Bounds returns the current canvas rectangle.
func (g Geom) Bounds() imaging.Rect { return imaging.Rect{X0: 0, Y0: 0, X1: g.W, Y1: g.H} }

// EffectiveDR returns the DR clipped to the current canvas — the set of
// pixels an operation actually edits. Its Area() is the paper's |DR|.
func (g Geom) EffectiveDR() imaging.Rect { return g.DR.Canon().Intersect(g.Bounds()) }

// MergeLayout describes the canvas arithmetic of a Merge: where the target
// and the pasted DR block land on the new canvas, how many target pixels are
// overwritten and how many background pixels fill the gap. Both engines
// derive their numbers from this one computation.
type MergeLayout struct {
	// NewW, NewH are the result canvas dimensions.
	NewW, NewH int
	// TargetOffX, TargetOffY is where target pixel (0,0) lands.
	TargetOffX, TargetOffY int
	// Paste is the pasted block's rectangle on the new canvas.
	Paste imaging.Rect
	// BlockW, BlockH are the pasted block's dimensions (= effective DR).
	BlockW, BlockH int
	// TargetW, TargetH echo the target dimensions (0 for a null target).
	TargetW, TargetH int
	// Overwritten is the number of target pixels covered by the block.
	Overwritten int
	// Gap is the number of new-canvas pixels covered by neither the target
	// nor the block; they are filled with the background color.
	Gap int
}

// LayoutMerge computes the canvas arithmetic for pasting a blockW×blockH DR
// at (xp, yp) in the coordinate system of a targetW×targetH image. For a
// null target pass targetW = targetH = 0; the block then becomes the whole
// result. The result canvas is the bounding box of the target rectangle
// [0,targetW)×[0,targetH) and the block rectangle [xp,xp+blockW)×[yp,yp+blockH),
// matching the paper's total-pixel formula for Merge.
func LayoutMerge(blockW, blockH, targetW, targetH, xp, yp int) MergeLayout {
	block := imaging.Rect{X0: xp, Y0: yp, X1: xp + blockW, Y1: yp + blockH}
	target := imaging.Rect{X0: 0, Y0: 0, X1: targetW, Y1: targetH}
	canvas := target.Union(block)
	l := MergeLayout{
		NewW:       canvas.Dx(),
		NewH:       canvas.Dy(),
		TargetOffX: -canvas.X0,
		TargetOffY: -canvas.Y0,
		Paste:      block.Translate(-canvas.X0, -canvas.Y0),
		BlockW:     blockW,
		BlockH:     blockH,
		TargetW:    targetW,
		TargetH:    targetH,
	}
	l.Overwritten = target.Intersect(block).Area()
	l.Gap = l.NewW*l.NewH - targetW*targetH - blockW*blockH + l.Overwritten
	return l
}

// ScaleOutDim returns the output dimension for scaling w source pixels by
// factor s: round-half-away-from-zero of w·s.
func ScaleOutDim(w int, s float64) int {
	return int(math.Round(float64(w) * s))
}

// ScaleSrcIndex returns the source index that output index x samples when
// scaling by s (nearest-neighbor inverse mapping), clamped into [0, w).
func ScaleSrcIndex(x, w int, s float64) int {
	i := int(math.Floor(float64(x) / s))
	if i < 0 {
		i = 0
	}
	if i >= w {
		i = w - 1
	}
	return i
}

// ScaleReplication returns the minimum and maximum number of output indices
// that sample any single source index when scaling w source pixels by s into
// outW output pixels. The rule engine multiplies histogram bounds by these
// factors; computing them by direct counting (rather than floor/ceil
// approximations) keeps the bounds sound for every fractional factor,
// including the truncated final interval. ScaleSrcIndex is non-decreasing
// in x, so each source index's samples form one run and a single pass
// counts them without a per-index table; a source index that no output
// samples makes the minimum 0.
func ScaleReplication(w int, s float64, outW int) (minRep, maxRep int) {
	if w <= 0 {
		return 0, 0
	}
	minRep = outW
	runs, run, prev := 0, 0, 0
	for x := 0; x < outW; x++ {
		i := ScaleSrcIndex(x, w, s)
		if run > 0 && i != prev {
			minRep, maxRep = min(minRep, run), max(maxRep, run)
			runs, run = runs+1, 0
		}
		prev, run = i, run+1
	}
	if run > 0 {
		minRep, maxRep = min(minRep, run), max(maxRep, run)
		runs++
	}
	if runs < w {
		minRep = 0
	}
	return minRep, maxRep
}

// TargetDims resolves a Merge target's dimensions. The database supplies an
// implementation backed by its catalog; tests supply closures.
type TargetDims func(id uint64) (w, h int, err error)

// Step advances the geometry across one operation and returns the new
// geometry plus, for Merge operations, the layout. DR transitions:
//
//   - Define sets the DR.
//   - Combine and Modify leave it unchanged.
//   - Resize-Mutate scales the DR's coordinates by the scale factors.
//   - Move-Mutate leaves the DR rectangle unchanged (the region of the
//     canvas remains selected even though its contents moved).
//   - Merge selects the pasted block on the new canvas.
func (g Geom) Step(op Op, dims TargetDims) (Geom, MergeLayout, error) {
	switch o := op.(type) {
	case Define:
		g.DR = o.Region
		return g, MergeLayout{}, nil
	case Combine, Modify:
		return g, MergeLayout{}, nil
	case Mutate:
		if sx, sy, ok := o.ScaleFactors(); ok && g.DR.Canon().ContainsRect(g.Bounds()) {
			g.W = ScaleOutDim(g.W, sx)
			g.H = ScaleOutDim(g.H, sy)
			dr := g.DR.Canon()
			g.DR = imaging.Rect{
				X0: ScaleOutDim(dr.X0, sx), Y0: ScaleOutDim(dr.Y0, sy),
				X1: ScaleOutDim(dr.X1, sx), Y1: ScaleOutDim(dr.Y1, sy),
			}
		}
		return g, MergeLayout{}, nil
	case Merge:
		eff := g.EffectiveDR()
		tw, th := 0, 0
		if o.Target != NullTarget {
			if dims == nil {
				return g, MergeLayout{}, fmt.Errorf("editops: merge target %d needs a TargetDims resolver", o.Target)
			}
			var err error
			tw, th, err = dims(o.Target)
			if err != nil {
				return g, MergeLayout{}, fmt.Errorf("editops: merge target %d: %w", o.Target, err)
			}
		}
		l := LayoutMerge(eff.Dx(), eff.Dy(), tw, th, o.XP, o.YP)
		g.W, g.H = l.NewW, l.NewH
		g.DR = l.Paste
		return g, l, nil
	default:
		return g, MergeLayout{}, fmt.Errorf("editops: unknown op kind %T", op)
	}
}
