package bench

import (
	"testing"

	"spin/internal/vtime"
)

// TestTable2ExactNanoseconds pins the Table 2 UDP round trip to the
// nanosecond at each guard count. The formatted table rounds to tenths of
// a microsecond; this catches any drift in how guard evaluation is
// metered, including drift that rounding would hide.
func TestTable2ExactNanoseconds(t *testing.T) {
	for _, c := range []struct {
		guards int
		want   vtime.Duration
	}{
		{1, 462_620},
		{5, 467_100},
		{10, 472_700},
		{50, 517_500},
	} {
		got, err := Table2Roundtrip(c.guards)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%d guards: round trip %d ns, want %d ns", c.guards, int64(got), int64(c.want))
		}
	}
}
