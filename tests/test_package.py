import mlvkit

REMOVED = ["poly_arith", "tangent_direction", "alg_max_evidence", "value_group_p_divisible",
           "report_from_json", "MaxAttained", "NoMaxEvidence"]


def test_public_names_resolve():
    for name in mlvkit.__all__:
        assert hasattr(mlvkit, name), name
    assert len(set(mlvkit.__all__)) == len(mlvkit.__all__)
    for name in REMOVED:
        assert name not in mlvkit.__all__ and not hasattr(mlvkit, name), name
