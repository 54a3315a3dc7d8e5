package wire

import (
	"strconv"

	"shbf/internal/core"
)

// The HTTP API. Every HTTP route of the daemon that has a wire op is a
// Route in one table, which both ends read: the daemon registers its
// routes from it and the HTTP client looks up an op's method, path,
// request body and answer in it. Beside the table are the encoders of
// the five data-plane success answers, which the daemon writes and the
// client's decoder and tests are held to.

// BodyShape names an HTTP route's request body. The JSON shapes are
// shown with their fields in the order the Go client writes them; the
// daemon takes them in any order.
type BodyShape uint8

const (
	BodyKeys  BodyShape = iota // {"encoding":...,"keys":[...]}
	BodySet                    // {"encoding":...,"keys":[...],"set":n}
	BodyItems                  // {"encoding":...,"items":[{"count":c,"key":k},...]}
	BodyNone                   // no body
	BodyJSON                   // the request's Blob, a JSON document
	BodyRaw                    // the request's Blob, raw bytes (a ShBE envelope)
)

// AnswerShape names an HTTP route's success answer.
type AnswerShape uint8

const (
	AnswerNone    AnswerShape = iota // nothing the client reads
	AnswerJSON                       // a JSON document: the Response's Blob
	AnswerRaw                        // raw bytes: the Response's Blob
	AnswerAdded                      // {"added":n}: Applied
	AnswerApplied                    // {"applied":n}: Applied
	AnswerResults                    // {"results":[true,...]}: Bools
	AnswerCounts                     // {"counts":[n,...]}: Counts
	AnswerRegions                    // {"results":[{...,"mask":m},...]}: Regions
	AnswerRotate                     // {"rotated":[...],"epoch":n}: Rotated, Epoch
	AnswerMerged                     // {"merged_n":n,...}: Applied
)

// Route is one HTTP route of the daemon's API.
type Route struct {
	// Op is the wire op the route serves.
	Op byte
	// Method is the route's HTTP method.
	Method string
	// Path is the route's path as a net/http pattern; a tenant route
	// names its namespace with the {ns} segment.
	Path string
	// Body is the request body's shape.
	Body BodyShape
	// Answer is the success answer's shape.
	Answer AnswerShape
	// V1 reports that the pre-namespace API serves the route too, on
	// the default namespace, at "/v1" and the path after {ns}.
	V1 bool
}

// tenantPath is the path of a tenant under which its routes lie.
const tenantPath = "/v2/namespaces/{ns}"

// routes is the table, one entry per op.
var routes = [...]Route{
	{OpMembershipAdd, "POST", tenantPath + "/membership/add", BodyKeys, AnswerAdded, true},
	{OpMembershipContains, "POST", tenantPath + "/membership/contains", BodyKeys, AnswerResults, true},
	{OpAssociationAdd, "POST", tenantPath + "/association/add", BodySet, AnswerApplied, true},
	{OpAssociationRemove, "POST", tenantPath + "/association/remove", BodySet, AnswerApplied, true},
	{OpAssociationQuery, "POST", tenantPath + "/association/classify", BodyKeys, AnswerRegions, true},
	{OpMultiplicityAdd, "POST", tenantPath + "/multiplicity/add", BodyItems, AnswerApplied, true},
	{OpMultiplicityRemove, "POST", tenantPath + "/multiplicity/remove", BodyItems, AnswerApplied, true},
	{OpMultiplicityCount, "POST", tenantPath + "/multiplicity/count", BodyKeys, AnswerCounts, true},
	{OpRotate, "POST", tenantPath + "/rotate", BodyNone, AnswerRotate, true},
	{OpStats, "GET", tenantPath + "/stats", BodyNone, AnswerJSON, true},
	{OpMembershipDump, "GET", tenantPath + "/membership/envelope", BodyNone, AnswerRaw, false},
	{OpMembershipMerge, "POST", tenantPath + "/merge", BodyRaw, AnswerMerged, false},
	{OpMultiplicityDump, "GET", tenantPath + "/multiplicity/envelope", BodyNone, AnswerRaw, false},
	{OpMultiplicityMerge, "POST", tenantPath + "/multiplicity/merge", BodyRaw, AnswerMerged, false},
	{OpFreeze, "POST", tenantPath + "/freeze", BodyNone, AnswerRaw, false},
	{OpNamespaceCreate, "POST", "/v2/namespaces", BodyJSON, AnswerNone, false},
	{OpNamespaceList, "GET", "/v2/namespaces", BodyNone, AnswerJSON, false},
	{OpNamespaceDelete, "DELETE", tenantPath, BodyNone, AnswerNone, false},
	{OpClusterMap, "GET", "/v2/cluster", BodyNone, AnswerJSON, false},
	{OpPing, "GET", "/healthz", BodyNone, AnswerNone, false},
	{OpMetrics, "GET", "/metrics", BodyNone, AnswerRaw, false},
}

// routeIndex maps an op code to its entry in routes, plus one; zero
// means the op has no route.
var routeIndex = func() (idx [256]uint8) {
	for i, rt := range routes {
		idx[rt.Op] = uint8(i + 1)
	}
	return idx
}()

// Routes returns the route table.
func Routes() []Route { return routes[:] }

// RouteOf returns op's route, and false for an op with none.
func RouteOf(op byte) (Route, bool) {
	i := routeIndex[op]
	if i == 0 {
		return Route{}, false
	}
	return routes[i-1], true
}

// The answer encoders write the bytes json.Encoder.Encode writes for
// the same values, trailing newline included (pinned by server's
// TestAnswerEncodersMatchEncodingJSON).

// AppendTally appends {"<name>":n}, the added and applied answers.
func AppendTally(dst []byte, name string, n int) []byte {
	dst = append(dst, `{"`...)
	dst = append(dst, name...)
	dst = append(dst, `":`...)
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, "}\n"...)
}

// AppendBools appends the contains answer {"results":[...]}.
func AppendBools(dst []byte, results []bool) []byte {
	dst = append(dst, `{"results":[`...)
	for i, v := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendBool(dst, v)
	}
	return append(dst, "]}\n"...)
}

// AppendCounts appends the count answer {"counts":[...]}.
func AppendCounts(dst []byte, counts []int) []byte {
	dst = append(dst, `{"counts":[`...)
	for i, c := range counts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(c), 10)
	}
	return append(dst, "]}\n"...)
}

// candidateNames lists the atomic regions in the order a classify
// answer names them.
var candidateNames = [...]struct {
	r    core.Region
	name string
}{{core.RegionS1Only, "s1-only"}, {core.RegionBoth, "both"}, {core.RegionS2Only, "s2-only"}}

// AppendRegions appends the classify answer: per key, its region name,
// the candidate atomic regions (an empty list is a definite non-member
// of both sets), whether it is the paper's "clear answer" (exactly one
// candidate), whether it lies in S1 or S2, and, on the v2 routes, the
// raw candidate bitmask the native client round-trips (the v1 shape is
// frozen without it).
func AppendRegions(dst []byte, regions []core.Region, withMask bool) []byte {
	dst = append(dst, `{"results":[`...)
	for i, r := range regions {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendRegion(dst, r, withMask)
	}
	return append(dst, "]}\n"...)
}

// AppendRegion appends one region object of a classify answer.
func AppendRegion(dst []byte, r core.Region, withMask bool) []byte {
	dst = append(dst, `{"region":"`...)
	dst = append(dst, r.String()...) // region names need no JSON escaping
	dst = append(dst, `","candidates":[`...)
	first := true
	for _, c := range candidateNames {
		if r.Contains(c.r) {
			if !first {
				dst = append(dst, ',')
			}
			dst = append(dst, '"')
			dst = append(dst, c.name...)
			dst = append(dst, '"')
			first = false
		}
	}
	dst = append(dst, `],"clear":`...)
	dst = strconv.AppendBool(dst, r.Clear())
	dst = append(dst, `,"in_s1":`...)
	dst = strconv.AppendBool(dst, r.InS1())
	dst = append(dst, `,"in_s2":`...)
	dst = strconv.AppendBool(dst, r.InS2())
	if withMask {
		dst = append(dst, `,"mask":`...)
		dst = strconv.AppendUint(dst, uint64(r), 10)
	}
	return append(dst, '}')
}
