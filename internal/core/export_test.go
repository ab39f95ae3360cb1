package core

// FullScan returns cfg with the eager full-scan planner selected, so
// the external parity tests can run whole scenarios through the oracle
// the incremental planner is checked against.
func FullScan(cfg Config) Config {
	cfg.fullScan = true
	return cfg
}
