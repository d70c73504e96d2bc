"""Patch gathers (fixture)."""


def im2col_patches(images):
    return images


def col2im_patches(rows):
    return rows


def im2col_scalar(images):
    return images


def col2im_scalar(rows):
    return rows
