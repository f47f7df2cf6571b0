"""The package namespace is the documented API: vdwsurf.__all__ equals
the README's Public API list, and the transcribed boss-hat forms live
in vdwsurf._errata only."""

import pathlib
import re

import pytest

import vdwsurf
import vdwsurf._errata
import vdwsurf.closed
import vdwsurf.images

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

MOVED_TO_ERRATA = ("u_bosshat", "xi_factors", "bosshat_radicals", "g_h_bosshat_cylindrical")


def _readme_public_api() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    bullets = next(block for block in section.split("\n\n") if block.startswith("- "))
    return re.findall(r"`([A-Za-z_]\w*)`", bullets)


def test_all_is_the_readme_public_api():
    documented = _readme_public_api()
    assert len(documented) == len(set(documented))
    assert set(vdwsurf.__all__) == set(documented)
    assert len(vdwsurf.__all__) == len(set(vdwsurf.__all__))


def test_every_public_name_resolves():
    for name in vdwsurf.__all__:
        assert getattr(vdwsurf, name) is not None


def test_public_namespace_has_nothing_else():
    public = {
        name for name, value in vars(vdwsurf).items()
        if not name.startswith("_") and not isinstance(value, type(vdwsurf))
    }
    assert public == set(vdwsurf.__all__)


@pytest.mark.parametrize("name", MOVED_TO_ERRATA)
def test_transcribed_forms_live_in_errata_only(name):
    assert callable(getattr(vdwsurf._errata, name))
    for module in (vdwsurf, vdwsurf.closed, vdwsurf.images):
        with pytest.raises(AttributeError):
            getattr(module, name)
