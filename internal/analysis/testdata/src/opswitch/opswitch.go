// Package opswitch holds fixtures for the opswitch analyzer: switches over
// the editing-operation taxonomy must reject unknown kinds (default arm on
// kind enums) and cover every concrete operation (type switches over Op).
package opswitch

import (
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/editops"
)

// bad: kind-enum switch without a default arm.
func kindNoDefault(k editops.Kind) string {
	switch k { // want "switch over editops.Kind has no default arm"
	case editops.KindDefine:
		return "define"
	case editops.KindCombine, editops.KindModify, editops.KindMutate, editops.KindMerge:
		return "other"
	}
	return ""
}

// good: same switch with a rejecting default.
func kindWithDefault(k editops.Kind) string {
	switch k {
	case editops.KindDefine:
		return "define"
	default:
		return "unknown"
	}
}

// bad: catalog kinds decoded from storage fall through silently.
func catalogKindNoDefault(k catalog.Kind) bool {
	switch k { // want "switch over catalog.Kind has no default arm"
	case catalog.KindBinary:
		return true
	case catalog.KindEdited:
		return false
	}
	return false
}

// bad: op type switch missing Merge and Mutate, no default.
func opMissing(op editops.Op) int {
	switch op.(type) { // want "misses operation\(s\) Merge, Mutate"
	case editops.Define:
		return 0
	case editops.Combine:
		return 1
	case editops.Modify:
		return 2
	}
	return -1
}

// good: all five operations covered, no default needed.
func opExhaustive(op editops.Op) int {
	switch op.(type) {
	case editops.Define:
		return 0
	case editops.Combine:
		return 1
	case editops.Modify:
		return 2
	case editops.Mutate:
		return 3
	case editops.Merge:
		return 4
	}
	return -1
}

// good: default arm stands in for unhandled operations.
func opDefault(op editops.Op) int {
	switch o := op.(type) {
	case editops.Merge:
		return int(o.Target)
	default:
		return -1
	}
}

// good: switches over unrelated types are not the analyzer's business.
func unrelated(s string) int {
	switch s {
	case "a":
		return 1
	}
	return 0
}

// bad: mode switch with a default but missing registered modes — a new
// execution mode would fall into the default silently.
func modePartial(m core.Mode) string {
	switch m { // want "switch over core.Mode misses mode\(s\) ModeIndexed, ModeInstantiate"
	case core.ModeBWM:
		return "bwm"
	case core.ModeRBM:
		return "rbm"
	default:
		return "?"
	}
}

// bad: every mode covered but no rejecting default for unknown values
// decoded from the wire.
func modeNoDefault(m core.Mode) bool {
	switch m { // want "switch over core.Mode has no default arm"
	case core.ModeBWM, core.ModeRBM, core.ModeInstantiate, core.ModeIndexed:
		return true
	}
	return false
}

// good: every registered mode named plus a rejecting default.
func modeExhaustive(m core.Mode) string {
	switch m {
	case core.ModeBWM:
		return "bwm"
	case core.ModeRBM:
		return "rbm"
	case core.ModeInstantiate:
		return "instantiate"
	case core.ModeIndexed:
		return "indexed"
	default:
		return "unknown"
	}
}
