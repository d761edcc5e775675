package query

// IDSetEpoch exposes a set's epoch to the external tests, which use it to
// tell a pooled set (epoch > 1) from a fresh one.
func IDSetEpoch(s *IDSet) uint32 { return s.epoch }
