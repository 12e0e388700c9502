"""Semi-supervised multi-omics VAE: embedding, classification, evaluation."""
