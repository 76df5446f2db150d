package main

import "testing"

// TestParseBox: -ref takes four finite numbers. A NaN or infinite bound
// would match nothing and report that as an answer, so it is refused
// like a malformed value.
func TestParseBox(t *testing.T) {
	for _, tc := range []struct {
		in string
		ok bool
	}{
		{"-45,-45,45,45", true},
		{" -1e308, -10, 1e308, 10", true},
		{"1,2,3", false},
		{"a,0,1,1", false},
		{"NaN,-10,10,10", false},
		{"-Inf,-Inf,Inf,Inf", false},
		{"0,0,1,+Inf", false},
		{"0,0,1e309,1", false},
	} {
		if _, err := parseBox(tc.in); (err == nil) != tc.ok {
			t.Errorf("parseBox(%q): err %v, want ok=%v", tc.in, err, tc.ok)
		}
	}
}
