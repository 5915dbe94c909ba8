package sat

// Config collects the search heuristics a named strategy varies, so a
// family of differently-configured solvers can be described as data
// instead of a sequence of field pokes. The fields mirror the exported
// knobs on Solver.
type Config struct {
	// PhaseSaving reuses each variable's last polarity on decisions.
	PhaseSaving bool
	// LubyRestarts switches from Glucose LBD restarts to the Luby sequence.
	LubyRestarts bool
	// Inprocess enables between-restart clause vivification and binary
	// self-subsumption.
	Inprocess bool
}

// DefaultConfig is the configuration New uses: phase saving, Glucose
// restarts, inprocessing on.
func DefaultConfig() Config {
	return Config{PhaseSaving: true, Inprocess: true}
}

// ApplyTo writes the configuration onto an existing solver (the way a
// strategy configures the solver an encoder already built).
func (cfg Config) ApplyTo(s *Solver) {
	s.PhaseSaving = cfg.PhaseSaving
	s.LubyRestarts = cfg.LubyRestarts
	s.Inprocess = cfg.Inprocess
}
