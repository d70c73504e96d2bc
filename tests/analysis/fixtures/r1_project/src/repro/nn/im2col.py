"""Patch gathers (fixture)."""


def _gather(images, patches):
    patches[:] = images


def _scatter(patches, target):
    target[:] = patches
