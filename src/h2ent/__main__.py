"""`python3 -m h2ent`: the `h2ent` command line."""
from .cli import main
raise SystemExit(main())
