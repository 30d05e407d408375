package rpc

// Crashed reports whether addr is currently blackholed. Only tests ask:
// the mount learns of a crash the way a client does, through timeouts.
func (c *Conn) Crashed(addr string) bool {
	rt := c.routes[addr]
	return rt != nil && rt.down
}
