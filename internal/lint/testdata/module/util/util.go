// Package util is the imported half of the driver fixture module.
package util

// Scale multiplies x by k.
func Scale(x, k int) int { return x * k }
