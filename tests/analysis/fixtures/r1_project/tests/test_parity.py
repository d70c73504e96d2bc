"""Parity pins for every fast path (fixture)."""


def test_entropy_matches_scalar():
    from repro.jpeg.codec import _ChannelCoder
    from repro.reference import decode_scalar, encode_scalar

    coder = _ChannelCoder()
    assert coder.entropy_code([]) == encode_scalar(None, None)
    assert decode_scalar(None, b"") == []


def test_plan_matches_dynamic(model, InferencePlan):
    assert model.predict_proba_dynamic([1]) == [1]


def test_im2col_matches_scalar():
    from repro.nn.im2col import _gather
    from repro.reference import col2im_scalar, im2col_scalar

    patches = [0]
    _gather([1], patches)
    assert patches == im2col_scalar([1])
    assert col2im_scalar([1]) == [1]
