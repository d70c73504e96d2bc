"""Patch gathers (fixture)."""


def _gather(images, patches):
    patches[:] = images


def _scatter(patches, target):
    target[:] = patches


def _shift_views(buffer, patches):
    return buffer, patches


def _gather_shifted(images, views):
    views[1][:] = images
