package client

import "shbf/internal/wire"

// Do runs one raw wire request through c, for tests that send requests
// the typed handles refuse to build.
func Do(c *Client, req *wire.Request) (*wire.Response, error) { return c.do(req) }
