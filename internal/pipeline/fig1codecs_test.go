package pipeline_test

import (
	"repro/internal/experiments"
	"repro/internal/pipeline"
)

func init() {
	for _, c := range experiments.Fig1Codecs {
		pipeline.Fig1Codecs = append(pipeline.Fig1Codecs, c.Codec)
	}
}
