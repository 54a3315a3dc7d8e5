package server

// The data-plane body shapes, for the tests outside the package.
const (
	ShapeKeys  = int(shapeKeys)
	ShapeSet   = int(shapeSet)
	ShapeItems = int(shapeItems)
)

// ParsesCanonical reports whether the data-plane codec decodes body as
// shape's JSON form without the encoding/json fallback.
func ParsesCanonical(shape int, body []byte) bool {
	b := httpBody{in: body}
	return b.parse(bodyShape(shape))
}
