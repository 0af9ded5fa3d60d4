module prism

go 1.23
