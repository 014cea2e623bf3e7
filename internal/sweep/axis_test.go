package sweep_test

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sweep"
)

func TestParseAxis(t *testing.T) {
	good := []struct {
		in   string
		want sweep.Axis
	}{
		{"l3.size=1MiB,2MiB", sweep.Axis{Param: "l3.size", Values: []int64{1 << 20, 2 << 20}}},
		{" l2.ways = 4 , 8 ", sweep.Axis{Param: "l2.ways", Values: []int64{4, 8}}},
		{"l3.size=512k,8589934591g", sweep.Axis{Param: "l3.size", Values: []int64{512 << 10, 8589934591 << 30}}},
		{"rate.copies=-9223372036854775808", sweep.Axis{Param: "rate.copies", Values: []int64{math.MinInt64}}},
	}
	for _, tc := range good {
		got, err := sweep.ParseAxis(tc.in)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseAxis(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
	}
	for _, in := range []string{"l3.size", "l3.size=", "l3.size=1MiB,x", "l3.size=9223372036854775808"} {
		if got, err := sweep.ParseAxis(in); err == nil {
			t.Errorf("ParseAxis(%q) = %+v, want error", in, got)
		}
	}
	// Suffixed values that scale out of int64 used to wrap silently.
	for _, in := range []string{"l3.size=17179869185GiB", "l3.size=8589934592g", "l3.size=-8589934593g", "l3.size=9007199254740992KiB"} {
		_, err := sweep.ParseAxis(in)
		var re *sweep.ValueRangeError
		if !errors.As(err, &re) {
			t.Errorf("ParseAxis(%q) error = %v, want a ValueRangeError", in, err)
		}
	}
}

// FuzzParseAxis: ParseAxis never panics, and every axis it accepts
// re-parses to itself from its formatted form.
func FuzzParseAxis(f *testing.F) {
	for _, s := range []string{
		"l3.size=1MiB,2MiB", "l2.ways=4,8", "l3.size=512k", "line=64,128",
		"l3.size=17179869185GiB", "l3.size=8589934592g", "=5", "x=", "a=b=1",
		"rate.copies=-9223372036854775808", "l1d.size= 32 KiB ,1g",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		ax, err := sweep.ParseAxis(in)
		if err != nil {
			return
		}
		vals := make([]string, len(ax.Values))
		for i, v := range ax.Values {
			vals[i] = sweep.FormatAxisValue(ax.Param, v)
		}
		s := ax.Param + "=" + strings.Join(vals, ",")
		back, err := sweep.ParseAxis(s)
		if err != nil {
			t.Fatalf("ParseAxis(%q) = %+v; its formatted form %q does not parse: %v", in, ax, s, err)
		}
		if !reflect.DeepEqual(back, ax) {
			t.Fatalf("ParseAxis(%q) = %+v; %q parses back to %+v", in, ax, s, back)
		}
	})
}
