package vision

// Test-only exports for the external vision_test package, whose tests
// render worldgen maps: they import sim and worldgen, which package
// vision's own tests cannot.
var (
	RenderReference     = renderReference
	RenderFastReference = renderFastReference
	RefScene            = refScene
)
