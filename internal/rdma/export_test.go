package rdma

// SetRecvCredits overrides the receive-queue depth, so a test can drive
// two-sided flow control into RNR. Production code has no way to ask for
// it.
func (s *Server) SetRecvCredits(n int) { s.recvCredits = n }
