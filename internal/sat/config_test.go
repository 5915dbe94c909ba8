package sat

import "testing"

// TestConfigRoundTrip: ApplyTo sets every knob, and New's knobs equal
// DefaultConfig — core's canonical strategy relies on the latter to build
// the solver New builds.
func TestConfigRoundTrip(t *testing.T) {
	knobs := func(s *Solver) Config {
		return Config{PhaseSaving: s.PhaseSaving, LubyRestarts: s.LubyRestarts, Inprocess: s.Inprocess}
	}
	cfg := Config{PhaseSaving: false, LubyRestarts: true, Inprocess: false}
	s := New()
	cfg.ApplyTo(s)
	if got := knobs(s); got != cfg {
		t.Fatalf("after ApplyTo = %+v, want %+v", got, cfg)
	}
	if def := knobs(New()); def != DefaultConfig() {
		t.Fatalf("New() config = %+v, want DefaultConfig %+v", def, DefaultConfig())
	}
	if !New().DeepMinimize {
		t.Fatal("New() must minimize learnt clauses recursively")
	}
}
