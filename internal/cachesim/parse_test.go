package cachesim

import "testing"

func TestParseConfig(t *testing.T) {
	for _, s := range []string{"64set-12way", "1set-1way", "2048set-16way"} {
		c, err := ParseConfig(s)
		if err != nil {
			t.Fatalf("ParseConfig(%q): %v", s, err)
		}
		if c.String() != s || c.Policy != PolicyLRU || c.BlockSize != 0 {
			t.Fatalf("ParseConfig(%q) = %+v", s, c)
		}
	}
	for _, s := range []string{"", "64x12", "64set", "64set-12", "set-12way", "064set-12way", "+64set-12way",
		"64set-12way ", "48set-12way", "64set-0way", "64set--1way", "64set-set-12way"} {
		if c, err := ParseConfig(s); err == nil {
			t.Fatalf("ParseConfig(%q) accepted: %+v", s, c)
		}
	}
}

// FuzzParseConfig holds ParseConfig to being String's inverse: any
// input it accepts prints back unchanged and validates, and no input
// panics.
func FuzzParseConfig(f *testing.F) {
	for _, s := range []string{"64set-12way", "16set-2way", "64x12", "0set-1way", "-64set-12way", "64set-12wayy"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseConfig(s)
		if err != nil {
			return
		}
		if got := c.String(); got != s {
			t.Fatalf("ParseConfig(%q).String() = %q", s, got)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("ParseConfig(%q) accepted an invalid config: %v", s, err)
		}
	})
}
