package core

// FunctionName returns the registered name for a function id.
func (s *RpcThreadedServer) FunctionName(fnID uint16) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.names[fnID]
}
