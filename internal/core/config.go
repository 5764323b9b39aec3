// Package core implements CacheBox's contribution: CB-GAN, a
// Pix2Pix-style conditional GAN that learns a cache's filtering
// behaviour over memory-access heatmaps (paper §3).
//
// The generator is a U-Net encoder/decoder with skip connections,
// modified (paper Fig. 5) to accept numerical cache parameters: the
// set and way counts pass through three fully connected layers and the
// reshaped output is concatenated to the bottleneck before the first
// up-sampling block. The discriminator is a PatchGAN that classifies
// patches of (access, miss) image pairs as real or synthetic. The
// objective is the λ-weighted sum of the conditional adversarial loss
// and an L1 reconstruction loss (paper Eq. 1–2, λ=150).
package core

import (
	"fmt"
	"math"
)

// Config describes a CB-GAN instance. The zero value is not usable;
// start from DefaultConfig.
type Config struct {
	// ImageSize is the (square) heatmap size; must be a power of two,
	// at least 8. The paper uses 512; the scaled default is 32 so
	// CPU-only training finishes in minutes.
	ImageSize int
	// NGF and NDF are the base filter counts of the generator and
	// discriminator (paper: 128 and 64).
	NGF, NDF int
	// Depth is the number of U-Net down-sampling blocks. 0 means
	// log2(ImageSize), taking the bottleneck to 1×1 (the paper's
	// Unet256/Unet512 behaviour).
	Depth int
	// DLayers is the number of strided PatchGAN blocks (receptive
	// field grows with each; 2 approximates the paper's 16×16
	// discriminator at scaled resolution).
	DLayers int
	// CondDim is the number of cache parameters fed to the generator
	// (2: sets and ways). 0 disables conditioning, the paper's RQ4
	// combined-model variant.
	CondDim int
	// CondHidden is the width of the conditioning MLP's hidden layers.
	CondHidden int
	// CondChannels is how many bottleneck channels the conditioning
	// path contributes.
	CondChannels int
	// Lambda weighs the L1 reconstruction loss (paper: 150).
	Lambda float64
	// LSGAN switches the adversarial objective from binary
	// cross-entropy (the paper's Eq. 2) to least-squares GAN loss, the
	// common Pix2Pix stability variant. Off by default.
	LSGAN bool
	// LR is the Adam learning rate (Pix2Pix default 2e-4 when 0).
	LR float64
	// DropoutP is the dropout probability in the inner decoder blocks.
	DropoutP float64
	// PixelCap is the access-heatmap count mapped to +1 by the codec;
	// counts above it saturate. See Codec.
	PixelCap float32
	// MissPixelCap is the codec cap for miss heatmaps. Miss counts are
	// much smaller than access counts (most workloads hit), so a
	// smaller cap gives the miss targets usable dynamic range — the
	// role the paper's "pixel values scaled by two" plays at 512×512.
	MissPixelCap float32
	// Gamma is the codec's power transform (1 = linear; 2 = sqrt
	// encode). Concave encodes give sparse small counts usable range
	// and suppress background bias at decode.
	Gamma float64
	// Seed makes weight init and dropout deterministic.
	Seed int64
}

// DefaultConfig returns the scaled-down configuration used throughout
// this repository: 32×32 heatmaps, ngf 16, ndf 16, λ=150.
func DefaultConfig() Config {
	return Config{
		ImageSize:    32,
		NGF:          16,
		NDF:          16,
		DLayers:      2,
		CondDim:      2,
		CondHidden:   16,
		CondChannels: 8,
		Lambda:       150,
		LR:           2e-4,
		DropoutP:     0.5,
		PixelCap:     192,
		MissPixelCap: 48,
		Gamma:        2,
		Seed:         1,
	}
}

// PaperConfig returns the paper's full-scale settings (512×512,
// ngf 128, ndf 64). Training it needs serious hardware; it exists so
// the full experiment is expressible.
func PaperConfig() Config {
	c := DefaultConfig()
	c.ImageSize = 512
	c.NGF = 128
	c.NDF = 64
	c.DLayers = 3
	c.CondHidden = 64
	c.CondChannels = 32
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.ImageSize < 8 || c.ImageSize&(c.ImageSize-1) != 0 {
		return fmt.Errorf("core: image size must be a power of two >= 8, got %d", c.ImageSize)
	}
	if c.NGF <= 0 || c.NDF <= 0 {
		return fmt.Errorf("core: ngf/ndf must be positive, got %d/%d", c.NGF, c.NDF)
	}
	maxDepth := int(math.Log2(float64(c.ImageSize)))
	if c.Depth < 0 || c.Depth > maxDepth {
		return fmt.Errorf("core: depth must be in [0,%d], got %d", maxDepth, c.Depth)
	}
	if c.DLayers < 1 {
		return fmt.Errorf("core: discriminator needs at least 1 layer, got %d", c.DLayers)
	}
	if c.CondDim < 0 {
		return fmt.Errorf("core: negative conditioning dimension %d", c.CondDim)
	}
	if c.CondDim > 0 && (c.CondHidden <= 0 || c.CondChannels <= 0) {
		return fmt.Errorf("core: conditioning enabled but hidden=%d channels=%d", c.CondHidden, c.CondChannels)
	}
	// Each test is written so that NaN fails it: every comparison with
	// NaN is false.
	if !(c.Lambda >= 0) || math.IsInf(c.Lambda, 0) {
		return fmt.Errorf("core: lambda must be finite and non-negative, got %v", c.Lambda)
	}
	if !(c.LR >= 0) || math.IsInf(c.LR, 0) {
		return fmt.Errorf("core: learning rate must be finite and non-negative, got %v", c.LR)
	}
	if !(c.DropoutP >= 0 && c.DropoutP < 1) {
		// P = 1 makes the keep factor 1/(1-P) infinite.
		return fmt.Errorf("core: dropout probability must be in [0, 1), got %v", c.DropoutP)
	}
	if !(c.PixelCap > 0) || math.IsInf(float64(c.PixelCap), 0) {
		return fmt.Errorf("core: pixel cap must be finite and positive, got %v", c.PixelCap)
	}
	if !(c.MissPixelCap > 0) || math.IsInf(float64(c.MissPixelCap), 0) {
		return fmt.Errorf("core: miss pixel cap must be finite and positive, got %v", c.MissPixelCap)
	}
	if !(c.Gamma > 0) || math.IsInf(c.Gamma, 0) {
		// Codec reads a gamma <= 0 as linear, which the header would
		// not say.
		return fmt.Errorf("core: codec gamma must be finite and positive, got %v", c.Gamma)
	}
	return nil
}

// depth resolves the effective U-Net depth.
func (c Config) depth() int {
	if c.Depth > 0 {
		return c.Depth
	}
	return int(math.Log2(float64(c.ImageSize)))
}

// channels returns the encoder channel schedule: ngf, 2ngf, 4ngf, 8ngf,
// then capped at 8ngf (the Pix2Pix schedule).
func (c Config) channels() []int {
	d := c.depth()
	ch := make([]int, d)
	for i := range ch {
		m := 1 << uint(i)
		if m > 8 {
			m = 8
		}
		ch[i] = c.NGF * m
	}
	return ch
}
