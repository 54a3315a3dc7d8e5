package server

import "shbf/internal/wire"

// ParsesCanonical reports whether the data-plane codec decodes body as
// shape's JSON form without the encoding/json fallback.
func ParsesCanonical(shape wire.BodyShape, body []byte) bool {
	b := httpBody{in: body}
	return b.parse(shape)
}
