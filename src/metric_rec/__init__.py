"""Playlist-continuation recommenders built on learned diagonal metrics."""

from .params import ModelParams, init_mass, init_mdr, load_checkpoint, save_checkpoint

__all__ = [
    "ModelParams",
    "init_mdr",
    "init_mass",
    "save_checkpoint",
    "load_checkpoint",
]

__version__ = "0.1.0"
