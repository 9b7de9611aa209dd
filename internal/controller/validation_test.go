package controller

import "testing"

// TestExecuteRejectsOutOfRangeArguments: numeric arguments that would
// truncate or wrap must be rejected at the parser, not silently applied
// as a different value. (A pid of 2^32 used to wrap through int32(Atoi)
// into pid 0 territory; sizes had no upper bound at all.)
func TestExecuteRejectsOutOfRangeArguments(t *testing.T) {
	c := New(nil)
	bad := []string{
		"pidfilter web lpa 4294967296", // wraps int32
		"pidfilter web lpa 2147483648", // one past int32 max
		"pidfilter web lpa -7",         // negative
		"pidfilter web lpa 0",          // zero is "off", not a pid
		"window web lpa 999999999999",  // absurd size
		"window web lpa 0",             //
		"bufcap web lpa -1",            //
		"pubsubqueue web 0",            //
		"pubsubqueue web 4294967297",   //
		"flushinterval web -5s",        // negative duration
		"flushinterval web 0s",         // zero duration
	}
	for _, cmd := range bad {
		if _, err := c.Execute(cmd); err == nil {
			t.Errorf("Execute(%q) accepted out-of-range input", cmd)
		}
	}
}
