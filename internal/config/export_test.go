package config

// SampleR1 is the internal tests' sample, for the external test package.
const SampleR1 = sampleR1
