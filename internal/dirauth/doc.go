// Package dirauth implements the directory substrate FlashFlow plugs
// into: server descriptors, hourly network consensuses, bandwidth files,
// and the median-of-BWAuths vote aggregation that turns per-team
// measurements into consensus weights (§2, §4).
//
// The bandwidth-file side (v3bw.go) is the interchange format between
// the measurement plane and Tor's directory authorities. A BandwidthFile
// holds its entries sorted by relay name, each name once; the single
// constructor NewBandwidthFile establishes that (sorting once, the last
// entry of a repeated name winning), and every other operation is a
// linear pass over it. WriteTo and Render emit the v3bw text format in
// entry order with a stable header, so identical state produces
// byte-identical bodies — the property the obs package's ETag
// revalidation and the store package's recovered-snapshot round-trip
// both rely on — and ParseV3BW reads the same format back, which is how
// a coordinator recovering from durable state rehydrates its last
// published snapshot. MergeMedianFile performs the §4.2 per-relay median
// across independently measuring BWAuth teams — the step that keeps any
// single compromised team from controlling a relay's consensus weight —
// as one k-way merge over the sorted views, the same pass that
// MedianCapacities and the merge node's split-view check use.
// SplitView, at SplitViewFactor, is the one §5 split-view rule: the merge
// node applies it to the submitted views and internal/coord to one
// round's per-BWAuth estimates, so both give a relay the same verdict.
package dirauth
