// Package stalesup holds suppressions that silence nothing: each names
// an analyzer with no finding on its line or the next. The one that
// covers a real finding stays quiet.
package stalesup

import "time"

//sysprof:nonblocking
func bounded() {
	//lint:ignore nonblock the wait is bounded by construction
	time.Sleep(time.Millisecond)
}

//sysprof:nonblocking
func fixed() {
	//lint:ignore nonblock the sleep this excused was removed
	_ = time.Millisecond
}

// grows touches no field through sync/atomic.
func grows(buf []int) []int {
	//lint:ignore atomicmix appending to a local slice is never flagged
	buf = append(buf, 1)
	return buf
}
