"""Numeric core: autodiff tensors, optimizers, checkpoint container."""
