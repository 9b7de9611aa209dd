// Package app exercises cross-package import resolution in the driver:
// its annotated function calls into fixturemod/util, which the loader
// must resolve by mapping the import path onto the module tree.
package app

import "fixturemod/util"

// Total sums scaled values; annotated to prove a clean hot path across
// a module-local import stays clean.
//
//sysprof:nonblocking
func Total(xs []int) int {
	sum := 0
	for _, x := range xs {
		sum = util.Scale(x, 2) + sum
	}
	return sum
}
