package core

// EstimateCases hands TestEstimatesUnchanged's plan × option cases to the
// external tests that also run them under a runtime.Manager.
var EstimateCases = estimateCases
