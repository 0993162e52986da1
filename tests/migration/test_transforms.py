"""Tests for the Table 1 migration transforms."""

import pytest

from repro.migration.transforms import (
    FIGURE1_SCHEMES,
    IdentityTransform,
    RightShiftTransform,
    RotationTransform,
    XMirrorTransform,
    XYMirrorTransform,
    XYShiftTransform,
    YMirrorTransform,
    available_transforms,
    make_transform,
)
from repro.noc.topology import MeshTopology


class TestTable1Algebra:
    """Table 1's formulas, checked literally."""

    def test_rotation_formula(self, mesh4):
        transform = RotationTransform(mesh4)
        n = 4
        for x in range(n):
            for y in range(n):
                assert transform((x, y)) == (n - 1 - y, x)

    def test_x_mirror_formula(self, mesh5):
        transform = XMirrorTransform(mesh5)
        for x in range(5):
            for y in range(5):
                assert transform((x, y)) == (4 - x, y)

    def test_x_translation_formula(self, mesh4):
        transform = RightShiftTransform(mesh4, offset=1)
        for x in range(4):
            for y in range(4):
                assert transform((x, y)) == ((x + 1) % 4, y)

    def test_xy_mirror_formula(self, mesh4):
        transform = XYMirrorTransform(mesh4)
        assert transform((0, 0)) == (3, 3)
        assert transform((1, 2)) == (2, 1)

    def test_xy_shift_formula(self, mesh5):
        transform = XYShiftTransform(mesh5)
        assert transform((4, 4)) == (0, 0)
        assert transform((2, 3)) == (3, 4)


class TestGroupProperties:
    @pytest.mark.parametrize("scheme", FIGURE1_SCHEMES)
    @pytest.mark.parametrize("size", [4, 5])
    def test_bijection(self, scheme, size):
        topology = MeshTopology(size, size)
        transform = make_transform(scheme, topology)
        assert transform.is_bijection()

    def test_rotation_order_four(self, mesh4, mesh5):
        assert RotationTransform(mesh4).order() == 4
        assert RotationTransform(mesh5).order() == 4

    def test_mirror_order_two(self, mesh4):
        assert XMirrorTransform(mesh4).order() == 2
        assert XYMirrorTransform(mesh4).order() == 2
        assert YMirrorTransform(mesh4).order() == 2

    def test_shift_order_equals_width(self, mesh4, mesh5):
        assert RightShiftTransform(mesh4).order() == 4
        assert RightShiftTransform(mesh5).order() == 5
        assert XYShiftTransform(mesh4).order() == 4
        assert XYShiftTransform(mesh5).order() == 5

    def test_identity_order_one(self, mesh4):
        assert IdentityTransform(mesh4).order() == 1

    def test_orbit_returns_home(self, mesh5):
        transform = XYShiftTransform(mesh5)
        orbit = transform.orbit((1, 2))
        assert len(orbit) == 5
        assert orbit[0] == (1, 2)
        assert len(set(orbit)) == 5


class TestFixedPoints:
    def test_rotation_center_fixed_on_odd_mesh(self, mesh5):
        """The paper's explanation for rotation's weakness on 5x5 chips."""
        assert RotationTransform(mesh5).fixed_points() == [(2, 2)]

    def test_rotation_no_fixed_points_on_even_mesh(self, mesh4):
        assert RotationTransform(mesh4).fixed_points() == []

    def test_xy_mirror_center_fixed_on_odd_mesh(self, mesh5):
        assert XYMirrorTransform(mesh5).fixed_points() == [(2, 2)]

    def test_x_mirror_fixed_column_on_odd_mesh(self, mesh5):
        fixed = XMirrorTransform(mesh5).fixed_points()
        assert fixed == [(2, y) for y in range(5)]

    def test_shifts_have_no_fixed_points(self, mesh4, mesh5):
        assert RightShiftTransform(mesh4).fixed_points() == []
        assert XYShiftTransform(mesh5).fixed_points() == []

    def test_identity_everything_fixed(self, mesh4):
        assert len(IdentityTransform(mesh4).fixed_points()) == 16


class TestIsometry:
    def test_rotation_and_mirrors_preserve_distances(self, mesh4):
        assert RotationTransform(mesh4).preserves_relative_positions()
        assert XMirrorTransform(mesh4).preserves_relative_positions()
        assert XYMirrorTransform(mesh4).preserves_relative_positions()

    def test_shifts_wrap_and_break_some_distances(self, mesh4):
        assert not RightShiftTransform(mesh4).preserves_relative_positions()
        assert not XYShiftTransform(mesh4).preserves_relative_positions()


class TestConstructionErrors:
    def test_rotation_requires_square(self, mesh3x2):
        with pytest.raises(ValueError):
            RotationTransform(mesh3x2)

    def test_zero_shift_rejected(self, mesh4):
        with pytest.raises(ValueError):
            RightShiftTransform(mesh4, offset=4)
        with pytest.raises(ValueError):
            XYShiftTransform(mesh4, offset_x=0, offset_y=4)

    def test_unknown_transform_name(self, mesh4):
        with pytest.raises(ValueError):
            make_transform("diagonal-flip", mesh4)

    def test_factory_builds_all_advertised(self, mesh4):
        for name in available_transforms():
            transform = make_transform(name, mesh4)
            assert transform.name == name

    def test_figure1_schemes_subset_of_available(self):
        assert set(FIGURE1_SCHEMES) <= set(available_transforms())


class TestPermutationExport:
    def test_as_permutation_covers_mesh(self, mesh5):
        permutation = XYShiftTransform(mesh5).as_permutation()
        assert set(permutation.keys()) == set(mesh5.coordinates())
        assert set(permutation.values()) == set(mesh5.coordinates())

    def test_mirror_on_rectangular_mesh(self, mesh3x2):
        transform = XYMirrorTransform(mesh3x2)
        assert transform((0, 0)) == (2, 1)
        assert transform.is_bijection()


#: Table 1's per-coordinate maps, stated here rather than read from the
#: classes: ``(x, y, width, height) -> (x', y')``.
_TABLE1 = {
    "rotation": lambda x, y, w, h: (w - 1 - y, x),
    "x-mirror": lambda x, y, w, h: (w - 1 - x, y),
    "y-mirror": lambda x, y, w, h: (x, h - 1 - y),
    "xy-mirror": lambda x, y, w, h: (w - 1 - x, h - 1 - y),
    "right-shift": lambda x, y, w, h: ((x + 1) % w, y),
    "xy-shift": lambda x, y, w, h: ((x + 1) % w, (y + 1) % h),
    "identity": lambda x, y, w, h: (x, y),
}

_MESHES = [(w, h) for w in range(1, 7) for h in range(1, 7)]


def _shared_or_none(name, topology):
    """``make_transform(name, topology)``, or None where the scheme does not
    exist on the mesh (rotation off the square, a shift that does nothing)."""
    try:
        return make_transform(name, topology)
    except ValueError:
        return None


class TestSharedInstances:
    """make_transform returns one read-only instance per scheme, mesh and offsets."""

    def test_table1_covers_every_scheme(self):
        assert set(_TABLE1) == set(available_transforms())

    @pytest.mark.parametrize("name", available_transforms())
    def test_one_instance_per_mesh_with_the_stated_permutation(self, name):
        built = {}
        for width, height in _MESHES:
            transform = _shared_or_none(name, MeshTopology(width, height))
            if transform is None:
                continue
            # An equal mesh built anew reaches the same instance.
            assert make_transform(name, MeshTopology(width, height)) is transform
            perm = transform.node_permutation()
            assert not perm.flags.writeable
            with pytest.raises(ValueError):
                perm[0] = perm[-1]
            expected = [
                ny * width + nx
                for y in range(height)
                for x in range(width)
                for nx, ny in [_TABLE1[name](x, y, width, height)]
            ]
            assert perm.tolist() == expected
            assert transform.permutation_bytes == perm.tobytes()
            built[(width, height)] = transform
        assert built, f"{name} exists on no mesh"
        # A different mesh gives a different instance.
        assert len({id(transform) for transform in built.values()}) == len(built)

    def test_a_different_offset_is_a_different_instance(self, mesh5):
        two = make_transform("right-shift", mesh5, offset=2)
        assert two is make_transform("right-shift", mesh5, offset=2)
        assert two is not make_transform("right-shift", mesh5)
        assert two((4, 1)) == (1, 1)
        diagonal = make_transform("xy-shift", mesh5, offset_x=1, offset_y=2)
        assert diagonal is make_transform("xy-shift", mesh5, offset_y=2, offset_x=1)
        assert diagonal is not make_transform("xy-shift", mesh5, offset_x=2, offset_y=1)
        assert diagonal((0, 0)) == (1, 2)

    def test_a_shared_instance_arrives_derived(self):
        # Derived before it is shared, so no caller writes to it later.
        transform = make_transform("xy-mirror", MeshTopology(7, 3))
        assert transform._node_permutation is not None
        assert transform._permutation_bytes is not None

    def test_a_class_built_directly_is_its_own(self, mesh4):
        assert XYShiftTransform(mesh4) is not make_transform("xy-shift", mesh4)
        assert XYShiftTransform(mesh4) is not XYShiftTransform(mesh4)
