package rabin

// For the external tests, which run the chunker on each kernel.
var (
	HaveWide  = haveWide
	SetKernel = setKernel
	BreakWide = breakWide
)
