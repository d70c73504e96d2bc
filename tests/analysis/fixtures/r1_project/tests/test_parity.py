"""Parity pins for every fast path (fixture)."""


def test_entropy_matches_scalar():
    from repro.jpeg.codec import _ChannelCoder

    coder = _ChannelCoder()
    assert coder.entropy_code([]) == coder.encode_scalar(None)
    assert coder.decode_scalar(b"") == []


def test_plan_matches_dynamic(model, InferencePlan):
    assert model.predict_proba_dynamic([1]) == [1]


def test_im2col_matches_scalar():
    from repro.nn.im2col import im2col, im2col_scalar, col2im_scalar

    assert im2col([1]) == im2col_scalar([1])
    assert col2im_scalar([1]) == [1]
