package lang

// Exported for the external tests (package lang_test), which import
// workloads and so cannot live in package lang.
var (
	DiffParse  = diffParse
	ParseSeeds = parseSeeds
)
